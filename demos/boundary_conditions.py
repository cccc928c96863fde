"""
What the interpolant satisfies at the boundary
==============================================

Outside its data, a norm-minimal interpolant for the m = 2 kernel is a
combination of e^x and x e^x on the left (and mirrored on the right), so
two differential constraints hold at each endpoint: (1 - d/dx)^2 kills it
at a and (1 + d/dx)^2 at b.  The chain g(a) = g'(a) = g''(a) = g'''(a)
sometimes quoted instead is strictly stronger and generally false; the
test function shows gaps of about 0.7 while passing the two-constraint
form exactly.  Both forms come from one operator, (1 -+ d/dx)^k applied to
g, g', ...: k = 2 over two rows, the chain k = 1 over three.  With k = m
the same operator checks the box convolution of every order-m kernel.
"""

import math

from maternlab import KernelSpec, bc_residuals, convolve_with_indicator, f_exact

A, B = -1.2, 1.2

r = bc_residuals(f_exact, A, B)
print(f"two-constraint residuals of f at ({A}, {B}):")
for label, value in zip(
    ("(1-D)^2 g at a", "(1-D)^2 Dg at a", "(1+D)^2 g at b", "(1+D)^2 Dg at b"), r
):
    print(f"  {label:16s} = {value: .3e}")

chain = bc_residuals(f_exact, A, B, order=1, rows=3)
print("consecutive chain gaps (nonzero: the chain form does not hold):")
for i, value in enumerate(chain, start=1):
    print(f"  gap {i} = {value: .6f}")
print(f"expected magnitude e^-0.2 - e^-2.2 = {math.exp(-0.2) - math.exp(-2.2):.6f}")

# a pure decaying exponential satisfies the right-endpoint constraints and
# the right half of the chain, but not the left
decay = lambda x, order=0: (-1.0) ** order * math.exp(-x)
r_decay = bc_residuals(decay, A, B)
print(f"\ne^-x right-endpoint residuals: {r_decay[2]:.3e}, {r_decay[3]:.3e}")
print(f"e^-x left-endpoint residuals:  {r_decay[0]:.3e}, {r_decay[1]:.3e}")

# the order-m kernel's box convolution meets the order-m conditions outside
# its support, and not inside it
for m in range(1, 5):
    k = KernelSpec(m=m)
    g = lambda x, n: convolve_with_indicator(k, -1.0, 1.0, x, n)
    out = max(abs(v) for v in bc_residuals(g, A, B, order=m))
    inside = max(abs(v) for v in bc_residuals(g, -0.8, 0.8, order=m))
    print(f"m = {m}: largest order-m residual {out:.1e} at ({A}, {B}), {inside:.2f} at (-0.8, 0.8)")
