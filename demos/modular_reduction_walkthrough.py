"""The two-step modular reduction, coefficient by coefficient.

Start from the integral-form deformed coproduct on (1/alpha!) x^alpha D_i over
the rationals, reduce both tensor slots mod p (killing exponents >= p and
multiplying in the factorials), and land exactly on the mod-p closed form on
x^(alpha) D_i.  The scalar sequences match through l! * binom(alpha_k + l, l).
"""
import math
from fractions import Fraction

from wittquant import basic_coefficient, format_element, integral_eta, modular_unrestricted
from wittquant.rings import binom_int, multi_factorial
from wittquant.uea import reduce_element_mod_p, reduce_tensor_mod_p

p, n, k = 3, 2, 1
int_hopf = integral_eta((1, 0), n, cap=p)
mod_hopf = modular_unrestricted(p, n, (1, 0), cap=p)
WU, MU = int_hopf.uea, mod_hopf.uea

alpha, i = (1, 2), 2
bd_int = WU.alg.basis_symbol(alpha, i)
bd_mod = MU.alg.basis_symbol(alpha, i)

print(f"integral coefficients C_l for alpha = {alpha}, i = {i}:")
for ell in range(2 * p + 1):
    C = basic_coefficient(alpha[k - 1], 1 if i == k else 0, ell)
    assert C.denominator == 1
    print(f"  l = {ell}: C_l = {C}")
print()

print("mod-p coefficients and the lifting factor l! * binom(alpha_k + l, l):")
for ell in range(p):
    C = basic_coefficient(alpha[k - 1], 1 if i == k else 0, ell)
    Cbar = basic_coefficient(alpha[k - 1], 1 if i == k else 0, ell, p)
    lift = math.factorial(ell) * binom_int(alpha[k - 1] + ell, ell) * C
    print(f"  l = {ell}: Cbar_l = {Cbar}, lifted C_l = {lift} == {int(lift) % p} (mod {p})")
print()

scale = Fraction(1, multi_factorial(alpha))
dx = int_hopf.delta_basis(bd_int).scale(WU.ring.from_fraction(scale))
print("integral-form coproduct of (1/alpha!) x^alpha D_i:")
print(" ", format_element(dx))
reduced = reduce_tensor_mod_p(dx, MU)
target = mod_hopf.delta_basis(bd_mod)
print("slotwise reduction mod p:")
print(" ", format_element(reduced))
print("equals the mod-p closed form:", reduced == target)

sx = int_hopf.antipode_basis(bd_int).scale(WU.ring.from_fraction(scale))
print("antipode reduces the same way:", reduce_element_mod_p(sx, MU) == mod_hopf.antipode_basis(bd_mod))
