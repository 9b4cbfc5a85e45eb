#include "net/network.h"

#include <algorithm>
#include <cassert>

#include "sim/race_hooks.h"

namespace paxoscp::net {

namespace {

struct BroadcastAggregator {
  std::vector<TargetResult> results;
  size_t resolved = 0;
};

}  // namespace

struct Network::Delivery {
  DcId from;
  DcId to;
  bool duplicate;
  std::shared_ptr<const ServiceRequest> request;
  sim::Promise<CallResult> promise;
};

Network::Network(sim::Simulator* sim,
                 std::vector<std::vector<TimeMicros>> rtt_matrix,
                 NetworkOptions options)
    : sim_(sim),
      rtt_(std::move(rtt_matrix)),
      options_(options),
      rng_(options.seed),
      fault_rng_(options.seed ^ 0xd1b54a32d192ed03ULL) {
  const size_t n = rtt_.size();
  for (const auto& row : rtt_) {
    assert(row.size() == n && "rtt matrix must be square");
    (void)row;
  }
  handlers_.resize(n);
  dc_down_.assign(n, false);
  link_down_.assign(n, std::vector<bool>(n, false));
  dc_epoch_.assign(n, 0);
  link_epoch_.assign(n, std::vector<uint64_t>(n, 0));
}

void Network::RegisterEndpoint(DcId dc, ServiceHandler handler) {
  assert(dc >= 0 && dc < num_datacenters());
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net", "endpoint", dc});
  }
  handlers_[dc] = std::move(handler);
}

TimeMicros Network::SampleDelay(Rng* rng, DcId from, DcId to) {
  const TimeMicros one_way = rtt_[from][to] / 2;
  if (options_.latency_jitter <= 0 || one_way == 0) {
    return std::max<TimeMicros>(one_way, 1);
  }
  // A consequential draw mutates the shared stream: two same-time events
  // both sampling here observe swapped values under a tie reorder.
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite,
                      {rng == &rng_ ? "net/rng" : "net/fault-rng"});
  }
  const double j = (rng->NextDouble() * 2 - 1) * options_.latency_jitter;
  const auto delayed = static_cast<TimeMicros>(
      static_cast<double>(one_way) * (1.0 + j));
  return std::max<TimeMicros>(delayed, 1);
}

bool Network::ShouldDrop(Rng* rng, DcId from, DcId to) {
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "dc", from});
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "dc", to});
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "link", from, to});
  }
  if (dc_down_[from] || dc_down_[to]) return true;
  if (link_down_[from][to]) return true;
  if (from != to && options_.loss_probability > 0) {
    // The Bernoulli below consumes a draw (Bernoulli(0) never does, so the
    // restructuring preserves the stream position of loss-free runs).
    if (sim::race::Active()) {
      sim::race::Record(sim::race::AccessKind::kWrite,
                        {rng == &rng_ ? "net/rng" : "net/fault-rng"});
    }
    if (rng->Bernoulli(options_.loss_probability)) return true;
  }
  return false;
}

TimeMicros Network::MaybeReorderExtra(DcId from, DcId to) {
  if (options_.reorder_probability <= 0 || from == to) return 0;
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net/fault-rng"});
  }
  if (!fault_rng_.Bernoulli(options_.reorder_probability)) return 0;
  ++messages_reordered_;
  const TimeMicros max_extra =
      std::max<TimeMicros>(options_.reorder_extra_max, 1);
  return 1 + static_cast<TimeMicros>(
                 fault_rng_.Uniform(static_cast<uint64_t>(max_extra)));
}

sim::Future<CallResult> Network::Call(
    DcId from, DcId to, const std::shared_ptr<const ServiceRequest>& request,
    TimeMicros timeout) {
  assert(from >= 0 && from < num_datacenters());
  assert(to >= 0 && to < num_datacenters());
  if (timeout <= 0) timeout = options_.default_timeout;
  ++calls_started_;

  sim::Promise<CallResult> promise(sim_);

  // Timeout: fires unless a response won the race first.
  sim_->ScheduleAfter(
      timeout,
      [promise] {
        promise.Set(CallResult{Status::TimedOut("rpc timeout"), {}});
      },
      "net/timeout");

  ++messages_sent_;
  if (ShouldDrop(&rng_, from, to)) {
    ++messages_dropped_;
    return promise.GetFuture();
  }
  const TimeMicros delay =
      SampleDelay(&rng_, from, to) + MaybeReorderExtra(from, to);
  Deliver(from, to, delay, /*duplicate=*/false, request, promise);

  // Duplicate-delivery fault: with probability duplicate_probability (fault
  // stream), the request also arrives a second time, a little behind the
  // original. The destination handler runs twice — exactly the re-delivered
  // prepare/decide/apply the 2PC records must tolerate. The copy is a
  // message of its own: counted, lossy, and epoch-checked like any other
  // (sent at the same instant, it captures the original's channel epoch, so
  // it still respects outage windows and heal gaps). Every random draw for
  // it comes from the fault stream.
  if (options_.duplicate_probability > 0 && from != to) {
    if (sim::race::Active()) {
      sim::race::Record(sim::race::AccessKind::kWrite, {"net/fault-rng"});
    }
    if (fault_rng_.Bernoulli(options_.duplicate_probability)) {
      ++messages_sent_;
      ++messages_duplicated_;
      if (ShouldDrop(&fault_rng_, from, to)) {
        ++messages_dropped_;
      } else {
        const TimeMicros max_lag =
            std::max<TimeMicros>(options_.reorder_extra_max, 1);
        const TimeMicros lag = 1 + static_cast<TimeMicros>(fault_rng_.Uniform(
                                       static_cast<uint64_t>(max_lag)));
        Deliver(from, to, delay + lag, /*duplicate=*/true, request, promise);
      }
    }
  }
  return promise.GetFuture();
}

void Network::Deliver(DcId from, DcId to, TimeMicros delay, bool duplicate,
                      const std::shared_ptr<const ServiceRequest>& request,
                      const sim::Promise<CallResult>& promise) {
  const uint64_t epoch = ChannelEpoch(from, to);
  sim_->ScheduleAfter(
      delay,
      [this, from, to, epoch,
       delivery = std::make_unique<Delivery>(
           Delivery{from, to, duplicate, request, promise})]() mutable {
        // Delivery-time check: drop if the destination is down, or if it
        // (or the link traversed) went down at any point while the message
        // was in flight — a heal before arrival does not resurrect it.
        if (sim::race::Active()) {
          sim::race::Record(sim::race::AccessKind::kRead, {"net", "dc", to});
          sim::race::Record(sim::race::AccessKind::kRead,
                            {"net", "link", from, to});
          sim::race::Record(sim::race::AccessKind::kRead,
                            {"net", "endpoint", to});
        }
        if (dc_down_[to] || ChannelEpoch(from, to) != epoch || !handlers_[to]) {
          ++messages_dropped_;
          return;
        }
        Serve(delivery.release());  // eager: the handler starts right here
      },
      duplicate ? "net/dup-request" : "net/request-leg");
}

sim::Task Network::Serve(Delivery* raw_delivery) {
  const std::unique_ptr<Delivery> delivery(raw_delivery);
  const DcId from = delivery->from;
  const DcId to = delivery->to;
  ServiceResponse response =
      co_await handlers_[to](from, delivery->request.get());

  // Response leg. A duplicate's second response is invisible client-side
  // (sim::Promise is first-set-wins), but it still costs a message and can
  // be lost.
  Rng* rng = delivery->duplicate ? &fault_rng_ : &rng_;
  ++messages_sent_;
  if (ShouldDrop(rng, to, from)) {
    ++messages_dropped_;
    co_return;
  }
  const TimeMicros delay =
      SampleDelay(rng, to, from) +
      (delivery->duplicate ? 0 : MaybeReorderExtra(to, from));
  const uint64_t epoch = ChannelEpoch(to, from);
  sim_->ScheduleAfter(
      delay,
      [this, from, to, epoch, promise = std::move(delivery->promise),
       response = std::move(response)]() mutable {
        if (sim::race::Active()) {
          sim::race::Record(sim::race::AccessKind::kRead, {"net", "dc", from});
          sim::race::Record(sim::race::AccessKind::kRead,
                            {"net", "link", to, from});
        }
        if (dc_down_[from] || ChannelEpoch(to, from) != epoch) {
          ++messages_dropped_;
          return;
        }
        promise.Set(CallResult{Status::OK(), std::move(response)});
      },
      delivery->duplicate ? "net/dup-response" : "net/response-leg");
}

sim::Future<BroadcastResult> Network::Broadcast(
    DcId from, const std::vector<DcId>& targets,
    const std::shared_ptr<const ServiceRequest>& request, TimeMicros timeout) {
  sim::Promise<BroadcastResult> promise(sim_);
  if (targets.empty()) {
    promise.Set(BroadcastResult{});
    return promise.GetFuture();
  }
  auto agg = std::make_shared<BroadcastAggregator>();
  agg->results.resize(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    agg->results[i].dc = targets[i];
    Call(from, targets[i], request, timeout)
        .OnReady([i, agg, promise](CallResult&& result) {
          agg->results[i].status = std::move(result.status);
          agg->results[i].response = std::move(result.response);
          if (++agg->resolved == agg->results.size()) {
            promise.Set(std::move(agg->results));
          }
        });
  }
  return promise.GetFuture();
}

void Network::SetDatacenterDown(DcId dc, bool down) {
  assert(dc >= 0 && dc < num_datacenters());
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net", "dc", dc});
  }
  if (down && !dc_down_[dc]) ++dc_epoch_[dc];
  dc_down_[dc] = down;
}

void Network::SetLinkDown(DcId a, DcId b, bool down) {
  SetLinkOneWayDown(a, b, down);
  SetLinkOneWayDown(b, a, down);
}

void Network::SetLinkOneWayDown(DcId from, DcId to, bool down) {
  assert(from >= 0 && from < num_datacenters());
  assert(to >= 0 && to < num_datacenters());
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net", "link", from, to});
  }
  if (down && !link_down_[from][to]) ++link_epoch_[from][to];
  link_down_[from][to] = down;
}

void Network::ResetStats() {
  messages_sent_ = 0;
  messages_dropped_ = 0;
  calls_started_ = 0;
  messages_duplicated_ = 0;
  messages_reordered_ = 0;
}

}  // namespace paxoscp::net
