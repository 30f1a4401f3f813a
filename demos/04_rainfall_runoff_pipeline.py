"""End-to-end rainfall-runoff forecasting on synthetic storms.

Generates a training storm and a validation storm over the same synthetic
catchment, estimates the rainfall-to-outlet lag, builds the four-input
supervised layout (previous head plus three gauge rainfalls), fits one
fuzzy model per clustering algorithm and prediction scheme, and scores the
validation forecasts with the four error measures.
"""

import numpy as np

from fuzzyrunoff import ClusterConfig, StormParams, estimate_lag, fit_model, metric_set, predict_batch, scheme_sets, synth_storm

params = StormParams(
    pulses=(3, 6),
    amplitude_range=(6.0, 14.0),
    width_range=(600.0, 1500.0),
    station_gains=(1.3, 0.8, 1.1),
    station_delays=(0.0, 30.0, 60.0),
    routing_lag=5,
    storage=0.9,
    gain=0.08,
    exponent=1.5,
    noise=0.05,
    rain_resolution=0.2,
)
train = synth_storm(seed=3, duration=18000.0, base_interval=30.0, params=params)
valid = synth_storm(seed=103, duration=18000.0, base_interval=30.0, params=params)
print(f"training storm: {len(train)} samples, peak head {train.head.max():.1f} mm")
print(f"validation storm: {len(valid)} samples, peak head {valid.head.max():.1f} mm")

lag = estimate_lag(train, max_lag=20)
print(f"estimated lag: {lag} samples ({lag * 30} s)")
print()

print(f"{'algorithm':>9s} {'stride':>6s} {'rmse':>8s} {'ce':>7s} {'ve%':>7s} {'r':>6s}")
for stride in (1, 2, 5, 10):
    # the rain shifts by lag minus stride: each horizon sees the latest admissible rain
    tset, vset = scheme_sets(lag, stride, False, train, valid)
    for algo in ("gk", "fcm", "sc"):
        cfg = ClusterConfig(algorithm=algo, n_clusters=3, seed=42)
        model, fit = fit_model(tset.joined(), cfg)
        ms = metric_set(vset.y, predict_batch(model, vset.x))
        print(f"{algo:>9s} {stride:>6d} {ms.rmse:8.3f} {ms.ce:7.3f} "
              f"{ms.ve:7.2f} {ms.r:6.3f}")
    print()
print("error grows with the prediction horizon: the previous head carries")
print("less information the further ahead the target lies")
