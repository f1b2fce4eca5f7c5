#pragma once

#include <cstddef>
#include <cstdint>

#include "fastcast/common/time.hpp"

/// \file overload.hpp
/// End-to-end overload control (DESIGN.md §14).
///
/// The controller is a CoDel-style admission gate: instead of tripping on
/// instantaneous queue depth (which confuses a burst with overload), it
/// watches the *sojourn time* of work through the node — how long staged
/// submissions wait before being proposed, and how long proposals take to
/// decide. When the smoothed sojourn estimate stays above `target_delay`
/// for a full `trigger_window`, the node is genuinely saturated (arrival
/// rate > service rate, queues growing) and the controller starts shedding;
/// it reopens only once the estimate has fallen back below half the target
/// (hysteresis, so admission does not flap at the boundary). A hard depth
/// cap backstops the latency signal against pathological bursts.
///
/// Who may shed is protocol-dependent and is the crux of the design:
///
///   * The MultiPaxos ordering leader is a real admission point. A client
///     submission it has not yet seen is uncommitted — rejecting it with a
///     non-advisory `Busy` is safe, and the single serialization point
///     makes the verdict authoritative.
///   * Genuine protocols (FastCast/BaseCast) CANNOT renege once a message
///     is reliably multicast: a tentative timestamp staged in one group
///     that never finalizes would stall every other destination group's
///     delivery buffer forever. Their group leaders therefore send only
///     *advisory* Busy — the message is still processed in full; the
///     client is asked to back off.
///
/// Clients close the loop (flow::ClientOptions): they stamp deadlines,
/// time out silent requests, back off exponentially on Busy/timeout, and
/// spend retries from a budget proportional to primary sends so that a
/// saturated cluster sees shed load instead of a retry storm.

namespace fastcast::flow {

/// Server-side admission knobs (per protocol node).
struct Options {
  bool enable = false;            ///< off ⇒ admit() always true, no advisories
  Duration target_delay = milliseconds(5);   ///< CoDel sojourn target
  Duration trigger_window = milliseconds(20);///< sustained-excess window
  std::size_t max_depth = 4096;   ///< hard pipeline-depth backstop
};

/// Client-side robustness knobs. Every behaviour is gated on its knob being
/// nonzero, so the default-constructed value reproduces pre-flow clients.
struct ClientOptions {
  Duration deadline = 0;        ///< per-request deadline stamped as now+deadline
  Duration request_timeout = 0; ///< give up on a silent request after this long
  Duration backoff_base = 0;    ///< first backoff step on Busy/timeout
  Duration backoff_max = milliseconds(64);  ///< backoff cap
  double retry_budget = 0;      ///< retry tokens accrued per primary send
  std::uint32_t max_retries = 2;  ///< per-message retry cap
  /// AIMD injection pacing for open-loop clients (0 = off). Backoff windows
  /// alone give a client only two rates — line rate or silence — so a fleet
  /// oscillates in lockstep with the server's admission gate and the server
  /// idles between bursts. With pacing, each tick outside a backoff window
  /// sends with probability `pace`: Busy/timeout halves pace (at most once
  /// per backoff window), each completion adds `pace_increase`. The fleet
  /// converges near the capacity/offered ratio instead of duty-cycling.
  double pace_increase = 0;
};

/// CoDel-style overload detector. Single-threaded (lives inside a Process);
/// fed sojourn samples and depth observations by its owning protocol.
class OverloadController {
 public:
  OverloadController() = default;
  explicit OverloadController(const Options& opt) : opt_(opt) {}

  bool enabled() const { return opt_.enable; }
  const Options& options() const { return opt_; }

  /// Records one queueing-delay observation (staging wait, propose→decide
  /// round trip, ...). `now` anchors the sustained-excess window.
  void note_sojourn(Time now, Duration sojourn);

  /// Records how long a submission spent *reaching* this node (client send
  /// → admission, from the envelope's sent_at stamp). Kept separate from
  /// note_sojourn: the two populations have very different scales, and one
  /// EWMA over both flickers around the target instead of sustaining above
  /// it — post-admission staging waits are short even while arrivals are
  /// tens of ms stale. The gate triggers on the *sum* of the two estimates
  /// (expected client-send → ordered delay).
  void note_arrival_lag(Time now, Duration lag);

  /// Records the current pipeline depth (staged + queued + in-flight work).
  void note_depth(std::size_t depth) { depth_ = depth; }

  /// Advances the state machine and returns whether the node is shedding.
  bool overloaded(Time now) {
    update(now);
    return shedding_;
  }

  /// True ⇔ the submission should be accepted. Equivalent to
  /// `!overloaded(now)` but reads as the admission decision it is.
  bool admit(Time now) { return !overloaded(now); }

  /// ECN/RED-style early-warning signal: the probability with which an
  /// admitted submission should carry an advisory Busy. Ramps linearly from
  /// 0 at half the target delay to 1 at the target (1 while shedding), so
  /// the aggregate slow-down pressure on the client fleet is proportional
  /// to the excess. Marking every message above a hard threshold instead
  /// parks the fleet just *below* it — and an empty queue means an idle
  /// server; the probabilistic ramp lets a small standing queue persist,
  /// which is exactly what keeps the server busy without risking deadlines.
  /// Rejection (the gate itself) stays a rare backstop, because every
  /// rejection costs a request.
  double mark_probability(Time now) {
    update(now);
    if (shedding_) return 1.0;
    const auto target = static_cast<double>(opt_.target_delay);
    const double excess = (ewma_ns_ + arrival_ewma_) - target * 0.5;
    if (excess <= 0) return 0.0;
    const double p = excess / (target * 0.5);
    return p < 1.0 ? p : 1.0;
  }

  /// Smoothed post-admission queueing estimate: the "residual delay" a
  /// newly admitted message can expect before it is ordered. Deliberately
  /// excludes arrival lag — a message processed now has already *paid* its
  /// lag, so deadline checks add residual to `now`, not lag twice.
  Duration estimated_delay() const {
    return static_cast<Duration>(ewma_ns_);
  }

  /// Smoothed client-send → admission lag (0 without sent_at stamps).
  Duration arrival_lag() const { return static_cast<Duration>(arrival_ewma_); }

  /// Expected client-send → ordered delay; what the gate compares against
  /// target_delay.
  Duration total_delay() const {
    return static_cast<Duration>(ewma_ns_ + arrival_ewma_);
  }

  /// Backoff hint carried in Busy replies: roughly how long the current
  /// queues need to drain.
  Duration retry_after() const {
    const Duration est = total_delay();
    return est > kRetryAfterBase ? est : kRetryAfterBase;
  }

  bool shedding() const { return shedding_; }
  std::size_t depth() const { return depth_; }

  static constexpr double kEwmaAlpha = 0.3;  ///< sojourn EWMA smoothing factor
  static constexpr Duration kRetryAfterBase = milliseconds(2);  ///< Busy hint floor

 private:
  void update(Time now);
  static void note(double& ewma, Time& last, Duration sample);
  void decay_idle(Time now, double& ewma, Time& last) const;

  Options opt_;
  double ewma_ns_ = 0;        ///< smoothed post-admission sojourn, ns
  double arrival_ewma_ = 0;   ///< smoothed client→admission lag, ns
  Time first_above_ = -1;     ///< when the estimate first exceeded target (-1 = not)
  // Idle-decay clocks are per estimator: while shedding, nothing is proposed,
  // so the sojourn stream goes silent exactly when its estimate must decay —
  // and arrival samples from trickling clients must not keep resetting it.
  Time last_sojourn_ = -1;    ///< last sojourn observation (for idle decay)
  Time last_arrival_ = -1;    ///< last arrival-lag observation (for idle decay)
  std::size_t depth_ = 0;
  bool shedding_ = false;
};

}  // namespace fastcast::flow
