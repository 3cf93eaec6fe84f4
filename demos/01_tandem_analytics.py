"""Walk through the closed-form analytics for one operating point.

Shows how the admission queue's occupancy distribution, the moments of the
gap to the next slot release, and the two mean-wait models are computed,
and cross-checks the occupancy against the exact Markov-chain oracle.
"""
import numpy as np

from evstation import (
    StationParams,
    admitted_interarrival_moments,
    analyze_admission,
    build_generator,
    occupancy_marginal,
)
from evstation.queueing import mean_wait

station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.3, tau=1.01)
n, d = 4, 20.0

analysis = analyze_admission(n, d, station)
print(f"slot spacing T_v = {analysis.t_v:.2f} min, offered load a = {analysis.offered_load:.3f}")
print(f"occupancy distribution: {np.round(analysis.state_probs, 4)}")
print(f"admission probability:  {analysis.p_admit:.4f}")

chain = build_generator(n, station.lam, analysis.t_v)
marginal = occupancy_marginal(chain)
print(f"chain-oracle marginal:  {np.round(marginal, 4)}")
print(f"max |closed form - chain| = {np.max(np.abs(marginal - analysis.state_probs)):.2e}")

mean_x, second_x = admitted_interarrival_moments(analysis)
print(f"\nslot-release gap mean E(X) = {mean_x:.2f} min, E(X^2) = {second_x:.1f}")
mu_y, var_y = station.m * mean_x, station.m * (second_x - mean_x**2)
print(f"coordinated arrivals: mu_Y = {mu_y:.2f} min, var_Y = {var_y:.2f}")

omega = mean_wait(analysis, station, "theorem1")
print(f"\ncharging load rho = {analysis.rho:.3f}, service {analysis.service_time:.1f} min")
print(f"closed-form wait index omega = {omega:.1f}")
print("(omega's bracket carries squared-minute units, so omega is in min^3)")
wait = mean_wait(analysis, station, "allen_cunneen")
print(f"Allen-Cunneen mean wait = {wait:.3f} min (n <= m: each slot reopens only")
print(" after its EV has finished charging, so no EV ever waits)")
