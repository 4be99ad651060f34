"""Walk through the air-to-ground link budget, one stage at a time.

Shows how elevation angle drives the LoS probability under both sigmoid
forms, how the path-loss exponent shapes the distance profile, and where
the 300 Mbit/s contour sits for the low-exponent profile used by the
larger scenarios.
"""

import math

from uavswarm import RadioParams, link_budget, los_probability

URBAN = RadioParams()                                   # delta = 2
OPEN = RadioParams(delta=1.43, plos_form="standard")    # long-reach profile


def section(title):
    print()
    print(title)
    print("-" * len(title))


section("LoS probability vs elevation")
print(f"{'elev deg':>9} {'as_written':>11} {'standard':>9}")
for deg in (1, 5, 10, 20, 45, 90):
    rad = math.radians(deg)
    pw = float(los_probability(rad, URBAN))
    ps = float(los_probability(rad, OPEN))
    print(f"{deg:9d} {pw:11.4f} {ps:9.4f}")
print("The as_written form keeps near-certain LoS at every angle; the")
print("standard form punishes grazing links, which matters once users sit")
print("hundreds of meters from their serving cell.")

section("Budget for a cell hovering 100 m overhead (delta = 2)")
lb = link_budget((0, 0, 100), (0, 0, 0), URBAN)
print(f"slant distance   {lb.distance_m:10.1f} m")
print(f"LoS probability  {lb.p_los:10.4f}")
print(f"path loss        {lb.path_loss_db:10.2f} dB")
print(f"received power   {lb.received_mw:10.2e} mW")
print(f"SNR              {lb.snr_db:10.2f} dB")
print(f"Shannon rate     {lb.rate_bps / 1e6:10.1f} Mbit/s")

section("Rate vs ground offset, low-exponent profile, height 100 m")
print(f"{'offset m':>9} {'elev deg':>9} {'PL dB':>8} {'rate Mbps':>10}")
for offset in (0, 20, 40, 46, 60, 100, 200, 290):
    lb = link_budget((0, 0, 100), (offset, 0, 0), OPEN)
    elev = math.degrees(lb.elevation_rad)
    print(f"{offset:9d} {elev:9.1f} {lb.path_loss_db:8.2f}"
          f" {lb.rate_bps / 1e6:10.2f}")
print("An interference-free link clears the premium 300 Mbit/s target out")
print("to roughly a 46 m ground offset at this height. The larger demos")
print("use that contour to place premium pockets on serviceable rings.")

section("Same geometry, urban delta = 2 profile")
for offset in (0, 40, 100, 290):
    lb = link_budget((0, 0, 100), (offset, 0, 0), URBAN)
    print(f"{offset:9d} {'':9} {lb.path_loss_db:8.2f}"
          f" {lb.rate_bps / 1e6:10.2f}")
print("The steeper exponent costs over 120 Mbit/s at the edge of the")
print("communication range, so identical fleets serve far smaller cells.")
