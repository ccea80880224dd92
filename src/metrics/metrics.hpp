// Evaluation metrics (paper Eq. 1, 2, 26, 27).
#pragma once

#include <cmath>
#include <span>
#include <vector>

namespace gpusim {

/// Eq. 2: Unfairness = MAX(slowdown_i) / MIN(slowdown_i); 1.0 is ideal.
/// Both metrics raise SimError(kInvariant) for an empty list or a
/// non-positive slowdown.
double unfairness(std::span<const double> slowdowns);

/// Eq. 27: Harmonic speedup = N / Σ (IPC_alone / IPC_shared)
///                          = N / Σ slowdown_i.
double harmonic_speedup(std::span<const double> slowdowns);

/// Eq. 26: |estimated - actual| / actual, as a fraction (0.088 = 8.8%).
/// Returns quiet NaN when the error is undefined — `actual` non-positive
/// (a starved or unmeasured app has no meaningful baseline) or either
/// argument non-finite — so callers can detect-and-skip instead of
/// dividing by zero or silently propagating garbage.
double estimation_error(double estimated, double actual);

/// Arithmetic mean of the *finite* samples (0 when none are).  NaN/Inf
/// entries — e.g. error columns for intervals with no baseline — are
/// skipped rather than poisoning the aggregate.
double mean(std::span<const double> values);

}  // namespace gpusim
