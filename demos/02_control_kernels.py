"""Anatomy of the three-term controller.

Prints the shape of each kernel, then integrates a bare two-UAV world to
show the spacing term settling at the rest distance, and a single
UAV-plus-user world to show the rate-coupling term parking a cell where
the target is met.
"""

import numpy as np

from uavswarm import bump, pair_potential, phi_sigmoid
from uavswarm.engine import (advance, associate_users, control_all,
                             make_world, tick_geometry, update_rates)
from uavswarm.kernels import sigma_norm_scalar
from uavswarm.model import ControlGains, RadioParams, ScenarioConfig, UserSpec

gains = ControlGains()

print("bump gate: flat at 1, cosine taper, hard zero")
for z in (0.0, 0.2, 0.5, 0.8, 1.0, 1.3):
    print(f"  bump({z:.1f}, 0.2) = {bump(z, 0.2):.4f}")

print()
print("pair potential over the sigma-distance (zero crossing at 100 m)")
for dist in (40, 70, 100, 150, 250, 299):
    z = sigma_norm_scalar(float(dist), gains.eps)
    print(f"  {dist:4d} m -> {pair_potential(z, gains):+8.4f}")

print()
print("odd deficit sigmoid, saturates near +/-5 within a few Mbit/s")
for mbps in (-50, -2, 0, 2, 50):
    print(f"  phi({mbps:+4d} Mbps) = {phi_sigmoid(float(mbps), gains):+7.4f}")

# two free-floating UAVs released 40 m apart with no users: the spacing
# force alone should push them out to the 100 m rest distance
cfg = ScenarioConfig(users=[], uav_count=2,
                     uav_initial_positions=[(0.0, 0.0), (40.0, 0.0)],
                     radio=RadioParams(), gains=gains)
world = make_world(cfg)
print()
print("two UAVs released 40 m apart, spacing term only:")
for tick in range(1200):
    geom, links = tick_geometry(world, gains.r)
    associate_users(world, gains, geom, links)
    update_rates(world, cfg.radio, gains, geom)
    controls = control_all(world, gains, "qos_driven", geom.dist,
                           links=links)
    advance(world, controls, gains, cfg.H)
    if tick % 200 == 199:
        sep = float(np.linalg.norm(world.uav_pos[0] - world.uav_pos[1]))
        print(f"  t={world.time:5.1f}s separation {sep:7.2f} m")
print("the velocity-matching term damps the relative motion, so the pair")
print("parks on the 100 m rest distance instead of ringing around it")

# one UAV, one premium user 250 m away: the coupling term drags the cell
# until the achieved rate clears the target, then the gate closes
cfg = ScenarioConfig(
    users=[UserSpec(klass="premium", position=(250.0, 0.0))],
    uav_count=1, uav_initial_positions=[(0.0, 0.0)],
    radio=RadioParams(delta=1.43, plos_form="standard"), gains=gains)
world = make_world(cfg)
print()
print("single cell chasing one premium user 250 m away:")
for tick in range(600):
    geom, links = tick_geometry(world, gains.r)
    associate_users(world, gains, geom, links)
    update_rates(world, cfg.radio, gains, geom)
    controls = control_all(world, gains, "qos_driven", geom.dist,
                           links=links)
    advance(world, controls, gains, cfg.H)
    if tick % 100 == 99:
        gap = float(np.linalg.norm(world.uav_pos[0, :2] - world.user_pos[0, :2]))
        print(f"  t={world.time:5.1f}s offset {gap:6.1f} m "
              f"rate {world.rate[0] / 1e6:6.1f} Mbps")
print("the cell hunts around the 300 Mbit/s contour: outside it the")
print("deficit pulls in, inside it the surplus pushes back out, and with")
print("no damping partner nearby the hover is a slow orbit, not a point")
