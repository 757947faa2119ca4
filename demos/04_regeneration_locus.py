"""Finding the perfect-regeneration manifold q_r = 0.

When q_r vanishes the regenerator's net heat is zero and the efficiency
comes within a few 1e-4 of the Carnot value, from below: on the locus the
two isochores' heat capacities cross, so the regenerator runs short at some
temperatures and the hot bath covers that.  For a width pair that misses the
condition at alpha = 2, tuning the two exponents can restore it; this script
solves for those exponent pairs and traces the locus curve.

The bundled benchmark table assumes a ten-level working substance, so all
evaluations here pass levels=10 to land on the same locus.
"""

from fracstirling import CycleParams, evaluate, solve_regeneration, trace_curve
from fracstirling.reference import BENCH_LEVELS, BENCH_ROWS

print("Regenerator heat at alpha_1 = alpha_2 = 2 for the benchmark widths:")
print(f"  {'L_A':>4} {'L_B':>4} {'q_r':>12}")
for row in BENCH_ROWS[:4]:
    q = evaluate(row.quadratic_params(), levels=BENCH_LEVELS).q_r
    print(f"  {row.width_a:4.1f} {row.width_b:4.1f} {q:12.6f}")
print("  none of these vanish: the width-only cycle misses perfect")
print("  regeneration, leaving efficiency below Carnot")

print("\nSolving q_r = 0 in alpha_1 at fixed alpha_2 (widths 1.0 / 1.4):")
base = CycleParams(1.0, 1.4, 1.5, 1.579, t_hot=4.0, t_cold=3.0)
point = solve_regeneration(
    base, "alpha_1", 1.47, 1.56, tol=1e-10, levels=BENCH_LEVELS
)
report = evaluate(point.params, levels=BENCH_LEVELS)
print(f"  alpha_1 = {point.params.alpha_1:.6f}  (residual {point.residual:.1e})")
print(f"  efficiency there = {report.efficiency:.6f} vs carnot {report.carnot}")

print("\nTracing the locus alpha_1(alpha_2) upward from the solved point:")
grid = [1.579 + 0.04 * i for i in range(6)]
trace = trace_curve(
    base, "alpha_2", "alpha_1", grid, (1.482, 2.0), tol=1e-8,
    levels=BENCH_LEVELS,
)
print(f"  {'alpha_2':>8} {'alpha_1':>9} {'|q_r|':>9}")
for g, root, residual, status in zip(trace.grid, trace.root, trace.residual, trace.status):
    if status == "root":
        print(f"  {g:8.4f} {root:9.5f} {residual:9.1e}")
    else:
        print(f"  {g:8.4f} {status:>9}")
print("  the curve rises monotonically: weaker fractional character at the")
print("  wide well must be matched by weaker character at the narrow one")
print(f"  trace.points holds each solved node as a cycle: {trace.points[-1].params}")

print("\nBelow a fold in alpha_2 the locus does not exist for this width")
print("pair; those nodes come back as gaps rather than errors, each with")
print("the reason it is one:")
low = trace_curve(
    base, "alpha_2", "alpha_1", [1.45, 1.50], (1.3, 2.0), tol=1e-8,
    levels=BENCH_LEVELS,
)
print(f"  alpha_2 in [1.45, 1.50] -> {low.status.tolist()}")
