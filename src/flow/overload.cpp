#include "fastcast/flow/overload.hpp"

namespace fastcast::flow {

void OverloadController::note(double& ewma, Time& last, Duration sample) {
  if (sample < 0) sample = 0;
  if (last < 0) {
    ewma = static_cast<double>(sample);
  } else {
    ewma = kEwmaAlpha * static_cast<double>(sample) + (1.0 - kEwmaAlpha) * ewma;
  }
}

void OverloadController::note_sojourn(Time now, Duration sojourn) {
  if (!opt_.enable) return;
  note(ewma_ns_, last_sojourn_, sojourn);
  last_sojourn_ = now;
  update(now);
}

void OverloadController::note_arrival_lag(Time now, Duration lag) {
  if (!opt_.enable) return;
  note(arrival_ewma_, last_arrival_, lag);
  last_arrival_ = now;
  update(now);
}

// Idle decay: once admission closes, a fully shed node stops proposing, so
// the sojourn stream goes silent and its estimate would pin above target
// forever. Halve a stream's estimate per sample-free trigger window — the
// queues that produced the old estimate are draining (or gone) while the
// stream sees no new work. Each stream decays on its own clock: arrivals
// from trickling clients keep sampling (fresh, small lags) even while the
// pipeline is silent, and must not suppress the pipeline's decay.
void OverloadController::decay_idle(Time now, double& ewma, Time& last) const {
  if (last < 0) return;
  while (now - last >= opt_.trigger_window && ewma > 1.0) {
    ewma *= 0.5;
    last += opt_.trigger_window;
  }
}

void OverloadController::update(Time now) {
  if (!opt_.enable) return;

  decay_idle(now, ewma_ns_, last_sojourn_);
  decay_idle(now, arrival_ewma_, last_arrival_);

  const auto target = static_cast<double>(opt_.target_delay);
  const bool above = ewma_ns_ + arrival_ewma_ > target;

  if (depth_ >= opt_.max_depth) {
    // Depth backstop: a burst deep enough to exhaust the pipeline budget is
    // shed immediately, latency estimate notwithstanding.
    shedding_ = true;
    if (first_above_ < 0) first_above_ = now;
    return;
  }

  if (!shedding_) {
    if (above) {
      if (first_above_ < 0) first_above_ = now;
      if (now - first_above_ >= opt_.trigger_window) shedding_ = true;
    } else {
      first_above_ = -1;
    }
    return;
  }

  // Shedding: reopen only after the estimate has fallen well below target
  // (hysteresis) and the backlog has visibly drained.
  if (ewma_ns_ + arrival_ewma_ <= target * 0.5 && depth_ < opt_.max_depth / 2) {
    shedding_ = false;
    first_above_ = -1;
  }
}

}  // namespace fastcast::flow
