"""
Mercer eigenpairs and their native-space extensions
===================================================

The kernel integral operator on [-1, 1] has an explicit spectrum for the
exponential kernel, which the Nystrom discretization reproduces.  Each
eigenfunction extends off the interval through the kernel itself, and the
extensions are orthogonal in the native space with norms 1/sqrt(kappa_n):
the plotted Gram matrix is diag(1/kappa) to near machine precision.
"""

import numpy as np

from maternlab import (
    KernelSpec,
    eigen_extend,
    hk_gram_matrix,
    kernel_eval,
    nystrom_eig,
    project_samples,
)

kernel = KernelSpec(m=1)
system = nystrom_eig(kernel, -1.0, 1.0, 200, 40)

print("leading eigenvalues (kappa_1 solves omega tan omega = 1):")
for n in range(5):
    print(f"  kappa_{n + 1} = {system.eigenvalues[n]:.8f}")

gram = hk_gram_matrix(system)[:5, :5] * system.eigenvalues[None, :5]
print(f"native Gram, scaled by kappa: off-identity {np.max(np.abs(gram - np.eye(5))):.2e}")

# extensions live on the whole line and decay; sample one
xs = np.array([-3.0, -1.5, 0.0, 1.5, 3.0])
print("phi_1^E at selected points:", np.round(eigen_extend(system, 0, xs), 5))

# truncated eigen-extension of a native function, the sum of its projected
# modes' extensions: keeping more modes shrinks the residual against the
# true kernel translate
target = lambda x: kernel_eval(kernel, np.abs(x - 0.3))
samples = target(system.nodes)
probe = np.linspace(-0.9, 0.9, 181)
print("extension residual vs modes kept:")
for keep in (5, 10, 20, 40):
    sub = nystrom_eig(kernel, -1.0, 1.0, 200, keep)
    extended = eigen_extend(sub, range(keep), probe) @ project_samples(sub, samples)
    resid = np.max(np.abs(extended - target(probe)))
    print(f"  {keep:3d} modes: {resid:.3e}")
