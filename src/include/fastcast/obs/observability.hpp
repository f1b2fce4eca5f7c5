#pragma once

#include "fastcast/obs/metrics.hpp"
#include "fastcast/obs/trace.hpp"

/// \file observability.hpp
/// Run-wide observability bundle.
///
/// One Observability object per run, shared by every node context (simulator
/// node contexts or TCP node threads) via Context::set_observability. The
/// hook on Context is a plain pointer, null by default: with observability
/// disabled every instrumentation site is a single pointer test, so the hot
/// paths stay at their uninstrumented cost. perfbench's
/// `obs.trace_overhead` measures what span tracing adds on top.
///
/// Metrics are always live once the bundle is installed; span tracing is
/// additionally gated by `tracing` because recording per-message events
/// takes a mutex and allocates.

namespace fastcast::obs {

class Observability {
 public:
  MetricsRegistry metrics;
  Tracer tracer;
  bool tracing = false;

  /// Records a span event iff tracing is enabled.
  void trace(MsgId mid, SpanEventKind kind, NodeId node, GroupId group,
             Time at, std::uint32_t aux = 0) {
    if (tracing) tracer.record(mid, kind, node, group, at, aux);
  }
};

}  // namespace fastcast::obs
