#include "core/window_ring.hpp"

#include <algorithm>
#include <stdexcept>

namespace rhhh {

namespace {

/// Upper-bound share of prefix p in one window (0 for an empty window),
/// clamped to 1: estimates can exceed the window length by slack terms.
double share_in(const LatticeHhh& w, const Prefix& p) {
  const std::uint64_t n = w.stream_length();
  if (n == 0) return 0.0;
  return std::min(w.estimate(p) / static_cast<double>(n), 1.0);
}

}  // namespace

std::vector<EmergingPrefix> emerging_from(const LatticeHhh& now,
                                          const LatticeHhh* before, double theta,
                                          double growth_factor) {
  std::vector<EmergingPrefix> out;
  const std::uint64_t n_now = now.stream_length();
  if (n_now == 0) return out;
  const bool have_before = before != nullptr && before->stream_length() != 0;

  for (const HhhCandidate& c : now.output(theta)) {
    const double share_now = c.f_est / static_cast<double>(n_now);
    double share_before = 0.0;
    if (have_before) {
      // Probe the sealed epoch's point estimate directly rather than its
      // HHH *set*: conditioned-frequency admission can exclude an ancestor
      // whose mass sat in admitted descendants, which would misreport a
      // steadily heavy aggregate as brand new. The estimate is at least
      // output()'s own f_hi for the prefix, so growth is understated
      // rather than inflated (the conservative direction for alarms) up to
      // each algorithm's estimation guarantee.
      share_before = share_in(*before, c.prefix);
    }
    if (share_before <= 0.0 || share_now / share_before >= growth_factor) {
      out.push_back(EmergingPrefix{c, share_before, share_now});
    }
  }
  return out;
}

std::vector<TrendPoint> trend_of(const std::vector<const LatticeHhh*>& windows,
                                 const Prefix& p) {
  std::vector<TrendPoint> out;
  out.reserve(windows.size());
  for (const LatticeHhh* w : windows) {
    TrendPoint t;
    t.stream_length = w->stream_length();
    t.estimate = t.stream_length == 0 ? 0.0 : w->estimate(p);
    t.share = share_in(*w, p);
    out.push_back(t);
  }
  return out;
}

std::vector<SustainedPrefix> emerging_sustained_from(
    const std::vector<const LatticeHhh*>& windows, double theta,
    double growth_factor, std::uint32_t min_epochs, double alpha) {
  if (min_epochs == 0) {
    throw std::invalid_argument("emerging_sustained_from: min_epochs must be >= 1");
  }
  if (!(alpha > 0.0) || alpha > 1.0) {
    throw std::invalid_argument("emerging_sustained_from: alpha must be in (0,1]");
  }
  std::vector<SustainedPrefix> out;
  // The run is the last min_epochs windows (live included); at least one
  // older window must remain to form the baseline, or a ramp is
  // indistinguishable from "the stream just started" -- report nothing.
  if (windows.size() < static_cast<std::size_t>(min_epochs) + 1) return out;
  const LatticeHhh& live = *windows.back();
  const std::uint64_t n_live = live.stream_length();
  if (n_live == 0) return out;
  const std::size_t run_begin = windows.size() - min_epochs;

  for (const HhhCandidate& c : live.output(theta)) {
    // EWMA baseline over the pre-run windows, oldest first, so recent
    // baseline epochs weigh more. Empty windows contribute a zero share
    // (no traffic is a legitimate quiet baseline).
    double baseline = share_in(*windows[0], c.prefix);
    for (std::size_t i = 1; i < run_begin; ++i) {
      baseline =
          alpha * share_in(*windows[i], c.prefix) + (1.0 - alpha) * baseline;
    }
    const double share_now = c.f_est / static_cast<double>(n_live);
    double min_run = share_now;
    for (std::size_t i = run_begin; i + 1 < windows.size(); ++i) {
      min_run = std::min(min_run, share_in(*windows[i], c.prefix));
    }

    // Persistence: every run window must clear the growth bar (or, for a
    // brand-new aggregate with zero baseline, carry any mass at all). A
    // one-epoch blip leaves at least one quiet run window behind and fails.
    const bool sustained = baseline <= 0.0
                               ? min_run > 0.0
                               : min_run >= growth_factor * baseline;
    if (sustained) {
      SustainedPrefix s;
      s.now = c;
      s.baseline_share = baseline;
      s.share_now = share_now;
      s.min_run_share = min_run;
      s.run_epochs = min_epochs;
      out.push_back(s);
    }
  }
  return out;
}

}  // namespace rhhh
