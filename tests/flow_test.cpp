// Overload-control tests (DESIGN.md §14): OverloadController state machine
// unit tests, then end-to-end admission behaviour through run_experiment —
// MultiPaxos rejects at its ordering leader, genuine protocols only advise,
// deadlines expire early, and the client-side terminal buckets stay
// exclusive (the conservation law).

#include <gtest/gtest.h>

#include "fastcast/flow/overload.hpp"
#include "fastcast/harness/experiment.hpp"

namespace fastcast {
namespace {

using flow::Options;
using flow::OverloadController;

Options small_opts() {
  Options o;
  o.enable = true;
  o.target_delay = milliseconds(5);
  o.trigger_window = milliseconds(2);
  o.max_depth = 64;
  return o;
}

TEST(OverloadController, DisabledNeverSheds) {
  OverloadController c;  // default Options: enable = false
  for (int i = 0; i < 10; ++i) {
    c.note_sojourn(milliseconds(i), milliseconds(500));
    c.note_depth(1 << 20);
  }
  EXPECT_FALSE(c.overloaded(milliseconds(10)));
  EXPECT_TRUE(c.admit(milliseconds(10)));
}

TEST(OverloadController, BriefSpikeDoesNotTrigger) {
  OverloadController c(small_opts());
  // One huge sample, immediately followed by a healthy stream before the
  // trigger window elapses: a burst is not overload.
  c.note_sojourn(0, milliseconds(50));
  EXPECT_FALSE(c.overloaded(0));
  for (int i = 0; i < 10; ++i) c.note_sojourn(milliseconds(1), 0);
  for (int i = 2; i < 10; ++i) {
    EXPECT_FALSE(c.overloaded(milliseconds(i))) << "at ms " << i;
  }
}

TEST(OverloadController, SustainedExcessTriggers) {
  OverloadController c(small_opts());
  Time now = 0;
  for (int i = 0; i < 5; ++i) {
    c.note_sojourn(now, milliseconds(50));
    now += milliseconds(1);
  }
  // Above target continuously for >= trigger_window (2 ms).
  EXPECT_TRUE(c.overloaded(now));
  EXPECT_FALSE(c.admit(now));
}

TEST(OverloadController, ArrivalLagCountsTowardTrigger) {
  OverloadController c(small_opts());
  Time now = 0;
  // Pipeline looks healthy (1 ms), but arrivals are 10 ms stale — the sum
  // is what must trip the gate (the shared-fate of both queues).
  for (int i = 0; i < 8; ++i) {
    c.note_sojourn(now, milliseconds(1));
    c.note_arrival_lag(now, milliseconds(10));
    now += milliseconds(1);
  }
  EXPECT_TRUE(c.overloaded(now));
  EXPECT_GT(c.arrival_lag(), milliseconds(5));
  EXPECT_GE(c.total_delay(), c.estimated_delay());
}

TEST(OverloadController, HysteresisReopensAtHalfTarget) {
  OverloadController c(small_opts());
  Time now = 0;
  for (int i = 0; i < 5; ++i) {
    c.note_sojourn(now, milliseconds(50));
    now += milliseconds(1);
  }
  ASSERT_TRUE(c.overloaded(now));
  // Converge the estimate to ~3 ms: below target but above target/2 — the
  // gate must stay closed (no flapping at the boundary).
  for (int i = 0; i < 64; ++i) {
    c.note_sojourn(now, milliseconds(3));
    now += microseconds(100);
  }
  EXPECT_TRUE(c.overloaded(now));
  // A genuinely drained pipeline reopens it.
  for (int i = 0; i < 64; ++i) {
    c.note_sojourn(now, 0);
    now += microseconds(100);
  }
  EXPECT_FALSE(c.overloaded(now));
}

TEST(OverloadController, DepthBackstopShedsImmediately) {
  OverloadController c(small_opts());
  c.note_depth(64);  // == max_depth; latency estimate still zero
  EXPECT_TRUE(c.overloaded(0));
  // Drained below half the cap: reopens without any latency samples.
  c.note_depth(0);
  EXPECT_FALSE(c.overloaded(milliseconds(1)));
}

TEST(OverloadController, PipelineEstimateDecaysWhileArrivalsKeepSampling) {
  // Regression: while shedding, nothing is proposed, so the pipeline stream
  // goes silent exactly when its estimate must decay for the gate to
  // reopen. Fresh (small) arrival-lag samples from trickling clients used
  // to reset a shared idle-decay clock and pin the gate shut forever.
  OverloadController c(small_opts());
  Time now = 0;
  for (int i = 0; i < 5; ++i) {
    c.note_sojourn(now, milliseconds(50));
    now += milliseconds(1);
  }
  ASSERT_TRUE(c.overloaded(now));
  for (int i = 0; i < 100; ++i) {
    c.note_arrival_lag(now, microseconds(50));
    now += microseconds(500);
  }
  EXPECT_FALSE(c.overloaded(now))
      << "pipeline estimate never decayed: " << c.estimated_delay();
}

TEST(OverloadController, MarkProbabilityRampsWithExcess) {
  OverloadController c(small_opts());
  EXPECT_DOUBLE_EQ(c.mark_probability(0), 0.0);
  Time now = 0;
  // Converge total delay to ~1 ms: below half target, no marking.
  for (int i = 0; i < 64; ++i) {
    c.note_sojourn(now, milliseconds(1));
    now += microseconds(100);
  }
  EXPECT_DOUBLE_EQ(c.mark_probability(now), 0.0);
  // ~3.75 ms: three quarters of the way to target -> p ~= 0.5.
  for (int i = 0; i < 256; ++i) {
    c.note_sojourn(now, microseconds(3750));
    now += microseconds(10);
  }
  const double p = c.mark_probability(now);
  EXPECT_GT(p, 0.35);
  EXPECT_LT(p, 0.65);
  // Shedding forces p = 1.
  for (int i = 0; i < 5; ++i) {
    c.note_sojourn(now, milliseconds(50));
    now += milliseconds(1);
  }
  ASSERT_TRUE(c.overloaded(now));
  EXPECT_DOUBLE_EQ(c.mark_probability(now), 1.0);
}

TEST(OverloadController, RetryAfterFlooredAtBase) {
  OverloadController c(small_opts());
  EXPECT_EQ(c.retry_after(), OverloadController::kRetryAfterBase);
  Time now = 0;
  for (int i = 0; i < 64; ++i) {
    c.note_sojourn(now, milliseconds(10));
    now += microseconds(100);
  }
  EXPECT_GT(c.retry_after(), milliseconds(5));
  EXPECT_EQ(c.retry_after(), c.total_delay());
}

// --- End-to-end admission through the harness ------------------------------

harness::ExperimentConfig overload_cfg(harness::Protocol proto) {
  harness::ExperimentConfig cfg;
  cfg.topo.env = harness::Environment::kLan;
  cfg.topo.groups = 2;
  cfg.topo.clients = 4;
  cfg.topo.protocol = proto;
  cfg.seed = 7;
  cfg.payload_size = 128;
  // Offered load far past capacity: 4 clients at one send per 100 us
  // against a 150 us per-message CPU makes the receiver the bottleneck.
  cfg.open_loop_interval = microseconds(100);
  cfg.cpu_override =
      sim::CpuModel{microseconds(150), microseconds(2), nanoseconds(1)};
  cfg.dst_factory = [](std::size_t i) -> harness::DstPicker {
    return harness::fixed_group(static_cast<GroupId>(i % 2));
  };
  cfg.warmup = milliseconds(20);
  cfg.measure = milliseconds(120);
  cfg.slice = milliseconds(15);
  cfg.drain = false;
  cfg.flow.enable = true;
  cfg.flow.target_delay = milliseconds(10);
  cfg.flow.trigger_window = milliseconds(4);
  cfg.client_flow.deadline = milliseconds(80);
  cfg.client_flow.request_timeout = milliseconds(200);
  cfg.client_flow.backoff_base = milliseconds(1);
  cfg.client_flow.backoff_max = milliseconds(16);
  cfg.client_flow.retry_budget = 0.25;
  cfg.client_flow.max_retries = 2;
  cfg.client_flow.pace_increase = 0.002;
  return cfg;
}

void expect_conservation(const harness::ExperimentResult& r) {
  EXPECT_EQ(r.sent, r.completions + r.rejected + r.expired + r.timed_out +
                        r.in_flight_end)
      << "terminal buckets must be exclusive and exhaustive";
}

TEST(FlowEndToEnd, MultiPaxosLeaderRejectsUnderOverload) {
  auto cfg = overload_cfg(harness::Protocol::kMultiPaxos);
  cfg.mp_ordering = harness::ExperimentConfig::MpOrdering::kIds;
  cfg.mp_batch_fill = 8;
  cfg.mp_batch_delay = microseconds(200);
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.report.ok) << "checker violations under overload";
  EXPECT_GT(r.completions, 0u) << "shedding must not starve admitted work";
  EXPECT_GT(r.rejected + r.expired, 0u) << "admission gate never engaged";
  EXPECT_GT(r.busy_received, 0u);
  expect_conservation(r);
}

TEST(FlowEndToEnd, GenuineProtocolOnlyAdvises) {
  // FastCast cannot renege on a reliably-multicast message: overload must
  // surface as advisory Busy (suppression / backoff), never as a terminal
  // rejection or expiry.
  const auto r = harness::run_experiment(overload_cfg(harness::Protocol::kFastCast));
  EXPECT_TRUE(r.report.ok);
  EXPECT_EQ(r.rejected, 0u) << "genuine protocol rejected a submission";
  EXPECT_EQ(r.expired, 0u) << "genuine protocol dropped on deadline";
  EXPECT_GT(r.busy_received, 0u) << "no advisories under 15x overload";
  EXPECT_GT(r.suppressed, 0u) << "advisories did not throttle the clients";
  expect_conservation(r);
}

TEST(FlowEndToEnd, TightDeadlineExpiresEarly) {
  auto cfg = overload_cfg(harness::Protocol::kMultiPaxos);
  cfg.mp_ordering = harness::ExperimentConfig::MpOrdering::kIds;
  cfg.mp_batch_fill = 8;
  cfg.mp_batch_delay = microseconds(200);
  // Deadline far under the queueing the overload builds: the leader should
  // drop early (kExpired) rather than burn consensus slots on dead work.
  cfg.client_flow.deadline = milliseconds(2);
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.report.ok);
  EXPECT_GT(r.expired, 0u) << "no deadline-aware early drops";
  expect_conservation(r);
}

TEST(FlowEndToEnd, FlowOffLeavesNoArtifacts) {
  auto cfg = overload_cfg(harness::Protocol::kMultiPaxos);
  cfg.flow.enable = false;
  cfg.client_flow = {};
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.report.ok);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.expired, 0u);
  EXPECT_EQ(r.timed_out, 0u);
  EXPECT_EQ(r.suppressed, 0u);
  EXPECT_EQ(r.busy_received, 0u);
  EXPECT_EQ(r.deadline_miss, 0u);
}

TEST(FlowEndToEnd, ClientTimesOutWhenClusterIsSilent) {
  auto cfg = overload_cfg(harness::Protocol::kMultiPaxos);
  cfg.drop_probability = 1.0;  // nothing survives the links
  cfg.client_flow.request_timeout = milliseconds(10);
  cfg.client_flow.max_retries = 1;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.report.ok);  // not quiesced, and nothing was delivered
  EXPECT_EQ(r.completions, 0u);
  EXPECT_GT(r.timed_out, 0u) << "request timeout never fired";
  expect_conservation(r);
}

TEST(FlowEndToEnd, DrainedOverloadRunPassesQuiescedChecks) {
  // Rejected submissions must not poison the quiesced validity/agreement
  // checks: the checker is told about terminal rejections so a multicast
  // with no delivery is accounted for, not flagged.
  auto cfg = overload_cfg(harness::Protocol::kMultiPaxos);
  cfg.mp_ordering = harness::ExperimentConfig::MpOrdering::kIds;
  cfg.mp_batch_fill = 8;
  cfg.mp_batch_delay = microseconds(200);
  cfg.measure = milliseconds(60);
  cfg.drain = true;
  cfg.check_level = Checker::Level::kFull;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.drained) << "overload run failed to quiesce";
  EXPECT_TRUE(r.report.ok) << "quiesced checks failed after rejections";
  EXPECT_GT(r.rejected + r.expired, 0u);
}

}  // namespace
}  // namespace fastcast
