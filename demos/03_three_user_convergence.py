"""The smallest interesting scenario: three users, two cells, one switch.

Two premium users sit 200 m apart with a regular user close to the second
one.  Both cells start on the shared default channel, which caps the
premium rates through mutual interference.  Watch the left cell clear its
cooldown, grab a private channel, and take all three users to target.
"""

from uavswarm import load_scenario, run

config = load_scenario("scenarios/fig3_three_users.yaml")
result = run(config, trace=True)

print(f"{config.n_users()} users, {config.uav_count} cells, "
      f"{config.radio.num_channels} channels, {config.duration:.0f} s")
print()

by_time = {}
for t, uid, serving, rate, mean in result.user_trace:
    by_time.setdefault(round(t, 3), {})[uid] = (serving, rate)

print(f"{'t':>5} {'u0 prem':>12} {'u1 prem':>12} {'u2 reg':>12}")
for t in (0.0, 2.0, 4.0, 5.0, 6.0, 10.0, 20.0, 30.0):
    row = by_time[t]
    cells = []
    for uid in (0, 1, 2):
        serving, rate = row[uid]
        # rate in Mbit/s at the id of the serving cell
        tag = f"{rate / 1e6:7.1f}@" + (f"#{serving}" if serving >= 0 else "--")
        cells.append(tag)
    print(f"{t:5.1f} {cells[0]:>12} {cells[1]:>12} {cells[2]:>12}")

print()
for ev in result.switch_events:
    gain = min(a / b for a, b in zip(ev.sinr_after, ev.sinr_before))
    print(f"t={ev.time:.1f}s cell {ev.uav_id} moved channel "
          f"{ev.old_channel} -> {ev.new_channel}, kept users {ev.user_ids}, "
          f"SINR up {gain:,.0f}x")

print()
print("final rates, all at or above 90% of target:")
world = result.world
for m, (premium, rate, target) in enumerate(zip(
        world.premium.tolist(), world.rate.tolist(), world.target.tolist())):
    klass = "premium" if premium else "regular"
    print(f"  user {m} ({klass:7s}) {rate / 1e6:6.1f} of "
          f"{target / 1e6:.0f} Mbit/s")
print()
print("the switch is the whole story: before it, interference on the")
print("shared channel caps every user below a sixth of the premium")
print("target; after it, each cell owns its spectrum, and the premium")
print("rates settle a fraction of a percent either side of 300 as the")
print("cells hover on the target contour")
