"""Three ways to partition the same data.

Fuzzy c-means measures plain Euclidean distance, so its clusters are balls.
Gustafson-Kessel gives every cluster its own unit-volume norm from the fuzzy
covariance, so clusters may be stretched and rotated ellipsoids.
Subtractive clustering does not take a cluster count at all: it picks
density peaks and reports how many it accepted.
"""

import math

import numpy as np

from fuzzyrunoff import ClusterConfig, run_fcm, run_gk, run_sc
from fuzzyrunoff.clustering import blend_scale, scatter_matrices, update_covariances

rng = np.random.default_rng(0)

# two elongated clouds rotated 30 degrees: a hard case for spherical norms
angle = math.radians(30.0)
rot = np.array([[math.cos(angle), -math.sin(angle)],
                [math.sin(angle), math.cos(angle)]])
cloud = (rng.normal(size=(250, 2)) * [5.0, 1.0]) @ rot.T
z = np.vstack([cloud, cloud + [-8.0, 15.0]])

cfg = ClusterConfig(n_clusters=2, seed=1)
# GK's covariances carry its regularisation; FCM never forms any, so its
# clusters are described by their raw fuzzy scatter
for name, runner, covariances in (
        ("GK ", run_gk, lambda u, v: update_covariances(scatter_matrices(z, u**cfg.m, v),
                                                        cfg.gamma, blend_scale(z))),
        ("FCM", run_fcm, lambda u, v: scatter_matrices(z, u**cfg.m, v))):
    u, centers, trace = runner(z, cfg)
    print(f"{name}: converged={trace.converged} after {trace.n_iterations} iterations,"
          f" final objective {trace.objective[-1]:.2f}")
    for i, (center, cov) in enumerate(zip(centers, covariances(u, centers))):
        w, v = np.linalg.eigh(cov)
        direction = math.degrees(math.atan2(v[1, -1], v[0, -1])) % 180
        print(f"   cluster {i}: center {center.round(2)}, "
              f"axis ratio {math.sqrt(w[-1] / w[0]):.1f}, "
              f"orientation {direction:.1f} deg")
print("(the generating clouds are 5:1 ellipses at 30 degrees)")
print()

# the objective trace is exportable; show its shape here
_, _, trace = run_gk(z, cfg)
print("GK objective per iteration:", [round(j, 1) for j in trace.objective[:8]], "...")
print()

# subtractive clustering finds its own count
blobs = np.vstack([
    rng.normal(scale=0.05, size=(12, 2)),
    rng.normal(scale=0.05, size=(12, 2)) + [4.0, 1.0],
    rng.normal(scale=0.05, size=(12, 2)) + [2.0, 5.0],
])
_, centers, _ = run_sc(blobs, ClusterConfig(algorithm="sc", sc_radius=0.5))
print(f"subtractive clustering found {len(centers)} clusters at:")
print(centers.round(3))
