"""Canonical ensemble of a single particle in the fractional well.

Walks through what `summarize` returns: internal energy, entropy, free
energy, and the adaptive truncation diagnostics (how many levels the tail
bound kept and how tight the bound is); then the level occupations, which
`occupations` computes on demand at the same cut.
"""

from fracstirling import ThermalState, WellSpec, occupations, summarize

spec = WellSpec(width=1.0, alpha=2.0, mass=1.0)

print("Heating a unit quadratic well (m = 1):")
print(f"  {'T':>5} {'U':>10} {'S':>10} {'F':>10} {'n_cut':>6} {'tail':>9}")
for t in (0.5, 1.0, 2.0, 4.0, 8.0):
    s = summarize(ThermalState(spec, t))
    print(
        f"  {t:5.1f} {s.internal_energy:10.5f} {s.entropy:10.5f} "
        f"{s.free_energy:10.5f} {s.n_cut:6d} {s.tail_bound:9.1e}"
    )
print("  (U rises and S grows as the bath unfreezes excited levels;")
print("   the kept level count follows automatically from the tail bound)")

print("\nOccupations at T = 4 for two exponents (width 1):")
for alpha in (2.0, 1.2):
    probs = occupations(ThermalState(WellSpec(1.0, alpha), 4.0))
    head = ", ".join(f"{p:.4f}" for p in probs[:6])
    print(f"  alpha = {alpha}: P_1..P_6 = [{head} ...]  (n_cut = {probs.size})")
print("  lower alpha -> denser spectrum -> weight spreads to higher n")

print("\nScale collapse: beta E_n depends only on beta (pi/2L)^a (1/2m)^(a/2) n^a,")
print("so stretching the well and cooling in step leaves the state untouched:")
s1 = summarize(ThermalState(WellSpec(1.0, 1.5), 4.0))
s2 = summarize(ThermalState(WellSpec(2.0, 1.5), 4.0 * 2.0**-1.5))
print(f"  S(L=1, T=4)          = {s1.entropy:.12f}")
print(f"  S(L=2, T=4/2^1.5)    = {s2.entropy:.12f}")

print("\nThe identity F = U - T S holds to rounding by construction:")
state = ThermalState(WellSpec(0.7, 1.4), 3.0)
s = summarize(state)
print(f"  F = {s.free_energy:.12f}")
print(f"  U - T S = {s.internal_energy - state.temperature * s.entropy:.12f}")
