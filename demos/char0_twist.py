"""Quantize the generalized-Witt algebra in characteristic 0 from r-matrix data.

The triangular r-matrix is encoded by two derivation vectors d0, d0p and an
exponent gamma with <d0, gamma> != 0; the induced pair h, e with [h, e] = e
drives the twist.  Everything is computed in U(W)[[t]] truncated at t^cap.
"""
from wittquant import QQ, RMatrixData, TensorElement, char0_general, format_element

rm = RMatrixData(d0=(1, 0), d0p=(0, 1), gamma=(1, 0))
hopf = char0_general(rm, cap=4)
U, alg = hopf.uea, hopf.uea.alg

print(f"r-matrix data: d0 = {tuple(map(int, rm.d0))}, d0p = {tuple(map(int, rm.d0p))}, gamma = {rm.gamma}")
print(f"pairing <d0, gamma> = {rm.pairing_value}")
print(f"h = {format_element(hopf.directions[0][1])}")
print(f"e = {format_element(hopf.directions[0][2])}")
h, e = rm.h_element(alg, QQ), rm.e_element(alg, QQ)
print("[h, e] == e:", h.bracket(e) == e)
print()

tw = hopf.build_twist(0)
print("twist (truncated at t^4):")
print("  F      =", format_element(tw.forward))
print("  F^(-1) =", format_element(tw.inverse))
print("  F * F^(-1) == 1 (x) 1:", tw.forward * tw.inverse == TensorElement.unit(U))
print()

for alpha, i in (((2, 0), 1), ((1, 1), 2), ((0, 0), 1)):
    bd = alg.basis_symbol(alpha, i)
    print(f"x^{alpha} d_{i}:")
    print("  Delta =", format_element(hopf.delta_basis(bd)))
    print("  S     =", format_element(hopf.antipode_basis(bd)))
    # the closed forms agree with brute conjugation by the twist
    dc, sc = hopf.conjugation_oracle(U.gen(bd))
    print("  matches conjugation:", dc == hopf.delta_basis(bd) and sc == hopf.antipode_basis(bd))
