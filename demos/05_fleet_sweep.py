"""Coverage staircase: the same field served by 6 to 21 cells.

Reduced version of the full sweep (a subset of fleet sizes, so it
finishes in about a third of the time).  Every run shares the
same 600-user field; each count takes one more entry from the scenario's
ordered start list.  Served and fulfilled percentages climb the staircase
until 16 cells saturate the field.
"""

from uavswarm import load_scenario
from uavswarm.harness import run_sweep

config = load_scenario("scenarios/sweep_base.yaml")
counts = [6, 8, 10, 12, 14, 16, 21]
print(f"{config.n_users()} users, counts {counts}, "
      f"{config.duration:.0f} s each; running...")

sweep = run_sweep(config, counts)

print(f"\n{'cells':>5} {'served%':>8} {'fulfilled%':>10} "
      f"{'prem ful%':>10} {'reg Mbps':>9}")
for n in counts:
    s = sweep.steady[n]
    print(f"{n:5d} {s['all_served_pct']:8.2f} {s['all_fulfilled_pct']:10.2f} "
          f"{s['premium_fulfilled_pct']:10.2f} "
          f"{s['regular_mean_rate'] / 1e6:9.1f}")

print()
print("with six cells only the premium islands nearest the start of the")
print("strip get service; each added cell either claims the next island")
print("or adopts one of the wide regular rectangles, so coverage climbs")
print("in steps: every premium user is at target from ten cells on,")
print("the last regular rectangle gets a server at sixteen, and the")
print("spare cells beyond that park out of interference range")
