#pragma once

#include "fastcast/amcast/timestamp_base.hpp"

/// \file fastcast.hpp
/// FastCast — Algorithm 2 of the paper: the optimistic genuine atomic
/// multicast that a-delivers global messages in 4δ on the fast path.
///
/// Fast path: on proposing a SET-HARD, the leader *guesses* the hard
/// timestamp with a soft logical clock CS and r-multicasts SEND-SOFT to
/// the destinations (1δ after START). Destinations order the soft
/// timestamps via consensus (SYNC-SOFT, +2δ). Meanwhile the slow path's
/// first phase runs concurrently: the SET-HARD consensus decides the real
/// hard timestamp and SEND-HARD propagates it (also 3δ after START, +1δ to
/// arrive). Task 6: if a received SEND-HARD carries exactly the timestamp
/// the ordered SYNC-SOFT guessed, the SYNC-HARD is treated as ordered
/// without the second consensus — all groups' SYNC-HARDs are then in B at
/// 4δ. On a mismatch the second consensus runs, as in BaseCast (6δ).
///
/// `force_slow_path` makes the leader transmit deliberately wrong guesses
/// (the ablation of Fig. 5): every message then takes the slow path while
/// still paying the fast path's message overhead.

namespace fastcast {

class FastCast final : public TimestampProtocolBase {
 public:
  struct Options {
    bool force_slow_path = false;
  };

  FastCast(Config config, NodeId self, Options options)
      : TimestampProtocolBase(std::move(config), self), options_(options) {}
  FastCast(Config config, NodeId self)
      : FastCast(std::move(config), self, Options{}) {}

  const char* name() const override { return "FastCast"; }

  Ts soft_clock() const { return cs_; }
  std::uint64_t fast_path_hits() const { return fast_hits_; }
  std::uint64_t slow_path_hits() const { return slow_hits_; }
  /// Leader-side: SET-HARDs whose decided hard timestamp differed from the
  /// transmitted soft guess (each forces the slow path for this group).
  std::uint64_t guess_mismatches() const { return guess_mismatches_; }
  std::uint64_t guesses_sent() const { return guesses_sent_; }

 protected:
  void on_rdeliver(Context& ctx, NodeId origin, const AmcastPayload& payload) override;
  void apply_tuple(Context& ctx, const Tuple& tuple) override;
  void before_propose(Context& ctx, const std::vector<Tuple>& batch) override;

 private:
  /// Task 6: orders (SYNC-HARD, h, x, m) out of band when the ordered
  /// SYNC-SOFT for (h, m) carries the same x. The message's dst is known.
  void try_task6(Context& ctx, const Tuple& hard_tuple);

  /// Deliberately-wrong guesses are offset far beyond any real clock value.
  static constexpr Ts kForcedSlowOffset = Ts{1} << 40;

  Options options_;
  Ts cs_ = 0;  ///< soft logical clock CS (leader only uses it)
  std::uint64_t fast_hits_ = 0;
  std::uint64_t slow_hits_ = 0;
  std::uint64_t guess_mismatches_ = 0;
  std::uint64_t guesses_sent_ = 0;
};

}  // namespace fastcast
