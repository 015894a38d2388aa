#pragma once

/// \file estimator.h
/// Streaming estimators for stencil::watch (DESIGN.md §16): an exponentially
/// weighted moving average and the P² (Jain & Chlamtac 1985) quantile sketch.
/// Both are O(1) per observation with fixed storage — the hot path of the
/// watch layer allocates nothing and touches a handful of doubles.

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace stencil::watch {

/// Exponentially weighted moving average. The first sample seeds the value;
/// later samples fold in with weight `alpha` (higher = more reactive).
class Ewma {
 public:
  Ewma() = default;
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void observe(double v) {
    value_ = n_ == 0 ? v : alpha_ * v + (1.0 - alpha_) * value_;
    ++n_;
  }

  double value() const { return value_; }
  std::uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }

  void reset() {
    value_ = 0.0;
    n_ = 0;
  }

 private:
  double alpha_ = 0.25;
  double value_ = 0.0;
  std::uint64_t n_ = 0;
};

/// P² streaming quantile estimator: five markers track the running
/// q-quantile without storing samples. Exact for the first five samples
/// (sorted pick); afterwards marker heights adjust with the piecewise-
/// parabolic formula. Error is a few percent of the local sample spread —
/// tests/test_watch.cpp pins the bound against known distributions.
class P2Quantile {
 public:
  explicit P2Quantile(double q = 0.95) : q_(q) {}

  void observe(double v) {
    if (n_ < 5) {
      h_[n_++] = v;
      if (n_ == 5) {
        std::sort(h_, h_ + 5);
        for (int i = 0; i < 5; ++i) pos_[i] = i + 1;
        desired_[0] = 1.0;
        desired_[1] = 1.0 + 2.0 * q_;
        desired_[2] = 1.0 + 4.0 * q_;
        desired_[3] = 3.0 + 2.0 * q_;
        desired_[4] = 5.0;
        inc_[0] = 0.0;
        inc_[1] = q_ / 2.0;
        inc_[2] = q_;
        inc_[3] = (1.0 + q_) / 2.0;
        inc_[4] = 1.0;
      }
      return;
    }

    int k = 0;
    if (v < h_[0]) {
      h_[0] = v;
      k = 0;
    } else if (v >= h_[4]) {
      h_[4] = v;
      k = 3;
    } else {
      for (k = 0; k < 4; ++k) {
        if (v < h_[k + 1]) break;
      }
    }
    for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
    for (int i = 0; i < 5; ++i) desired_[i] += inc_[i];

    for (int i = 1; i <= 3; ++i) {
      const double d = desired_[i] - pos_[i];
      if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
          (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
        const double s = d >= 0.0 ? 1.0 : -1.0;
        const double hp = parabolic(i, s);
        if (h_[i - 1] < hp && hp < h_[i + 1]) {
          h_[i] = hp;
        } else {  // parabolic prediction left the bracket: fall back to linear
          const int j = i + static_cast<int>(s);
          h_[i] += s * (h_[j] - h_[i]) / (pos_[j] - pos_[i]);
        }
        pos_[i] += s;
      }
    }
    ++n_;
  }

  /// Current estimate of the q-quantile. Windows with fewer than five
  /// samples return the *exact* order statistic — nearest-rank, rank
  /// ceil(q*n) over the sorted prefix — instead of an unprimed sketch
  /// estimate (truncating q*n skews small windows high: the old cast made
  /// q=0.5 over two samples return the max). 0 when empty.
  double value() const {
    if (n_ == 0) return 0.0;
    if (n_ < 5) {
      // Insertion sort of the (at most four) buffered samples into a
      // fixed-size array, so every index is visibly in bounds.
      const int n = static_cast<int>(n_);
      double sorted[4] = {};
      for (int i = 0; i < n; ++i) {
        int j = i;
        for (; j > 0 && sorted[j - 1] > h_[i]; --j) sorted[j] = sorted[j - 1];
        sorted[j] = h_[i];
      }
      const double rank = std::ceil(q_ * static_cast<double>(n));
      const int idx = rank <= 1.0 ? 0 : std::min(static_cast<int>(rank), n) - 1;
      return sorted[idx];
    }
    return h_[2];
  }

  std::uint64_t count() const { return n_; }
  double quantile() const { return q_; }

  void reset() { n_ = 0; }

 private:
  double parabolic(int i, double s) const {
    const double np = pos_[i];
    return h_[i] + s / (pos_[i + 1] - pos_[i - 1]) *
                       ((np - pos_[i - 1] + s) * (h_[i + 1] - h_[i]) / (pos_[i + 1] - np) +
                        (pos_[i + 1] - np - s) * (h_[i] - h_[i - 1]) / (np - pos_[i - 1]));
  }

  double q_;
  double h_[5] = {};        // marker heights
  double pos_[5] = {};      // marker positions (1-based sample ranks)
  double desired_[5] = {};  // desired positions
  double inc_[5] = {};      // desired-position increments
  std::uint64_t n_ = 0;
};

}  // namespace stencil::watch
