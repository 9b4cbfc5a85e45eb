// Unit tests for the simulated network: latency, timeouts, loss, outages,
// broadcasts, delivery faults, and the exact delivery schedule.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "net/network.h"
#include "sim/coro.h"

namespace paxoscp::net {
namespace {

constexpr TimeMicros kRtt = 10 * kMillisecond;

/// A request carrying `payload` (as the group name of a begin).
std::shared_ptr<const ServiceRequest> Request(const std::string& payload) {
  return std::make_shared<const ServiceRequest>(txn::BeginRequest{payload});
}

/// A response carrying `payload` (as the value of a read).
ServiceResponse Reply(std::string payload) {
  txn::ReadResponse response;
  response.read.value = std::move(payload);
  return response;
}

std::string Payload(const ServiceResponse& response) {
  return std::get<txn::ReadResponse>(response).read.value;
}

/// Echo service: replies with "<dc>:<payload>" after an optional delay.
ServiceHandler EchoHandler(sim::Simulator* sim, DcId dc,
                           TimeMicros service_time = 0) {
  return [sim, dc, service_time](
             DcId /*from*/,
             const ServiceRequest* request) -> sim::Coro<ServiceResponse> {
    if (service_time > 0) co_await sim::SleepFor(sim, service_time);
    co_return Reply(std::to_string(dc) + ":" +
                    std::get<txn::BeginRequest>(*request).group);
  };
}

class NetworkTest : public ::testing::Test {
 protected:
  void Build(int dcs, NetworkOptions options = {}) {
    options.latency_jitter = 0;  // exact timing assertions
    std::vector<std::vector<TimeMicros>> rtt(
        dcs, std::vector<TimeMicros>(dcs, kRtt));
    for (int i = 0; i < dcs; ++i) rtt[i][i] = 1000;
    network_ = std::make_unique<Network>(&sim_, rtt, options);
    for (DcId dc = 0; dc < dcs; ++dc) {
      network_->RegisterEndpoint(dc, EchoHandler(&sim_, dc));
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<Network> network_;
};

TEST_F(NetworkTest, CallDeliversResponse) {
  Build(2);
  std::optional<CallResult> result;
  network_->Call(0, 1, Request("ping"))
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(Payload(result->response), "1:ping");
}

TEST_F(NetworkTest, CallTakesOneRoundTrip) {
  Build(2);
  TimeMicros completed_at = -1;
  network_->Call(0, 1, Request("x"))
      .OnReady([&](CallResult&&) { completed_at = sim_.Now(); });
  sim_.RunUntil(kRtt + kMillisecond);
  EXPECT_GE(completed_at, kRtt);            // one full round trip
  EXPECT_LE(completed_at, kRtt + 2);        // plus delivery events
}

TEST_F(NetworkTest, IntraDatacenterCallIsFast) {
  Build(2);
  TimeMicros completed_at = -1;
  network_->Call(0, 0, Request("x"))
      .OnReady([&](CallResult&&) { completed_at = sim_.Now(); });
  sim_.RunUntil(5 * kMillisecond);
  EXPECT_GE(completed_at, 0);
  EXPECT_LE(completed_at, 2 * kMillisecond);
}

TEST_F(NetworkTest, TimeoutFiresWhenDestinationDown) {
  Build(2);
  network_->SetDatacenterDown(1, true);
  std::optional<CallResult> result;
  network_->Call(0, 1, Request("x"), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

TEST_F(NetworkTest, OutageMidFlightDropsDelivery) {
  Build(2);
  std::optional<CallResult> result;
  network_->Call(0, 1, Request("x"), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  // Take the destination down after the message left but before arrival.
  sim_.ScheduleAfter(kRtt / 4, [&] { network_->SetDatacenterDown(1, true); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

TEST_F(NetworkTest, LinkDownBlocksOnlyThatPair) {
  Build(3);
  network_->SetLinkDown(0, 1, true);
  std::optional<CallResult> blocked, open;
  network_->Call(0, 1, Request("x"), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { blocked = std::move(r); });
  network_->Call(0, 2, Request("x"), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { open = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(blocked->status.IsTimedOut());
  EXPECT_TRUE(open->status.ok());
}

TEST_F(NetworkTest, TotalLossTimesOutEveryCall) {
  NetworkOptions options;
  options.loss_probability = 1.0;
  Build(2, options);
  std::optional<CallResult> result;
  network_->Call(0, 1, Request("x"), 20 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(result->status.IsTimedOut());
  EXPECT_GT(network_->messages_dropped(), 0u);
}

TEST_F(NetworkTest, BroadcastCollectsAllTargets) {
  Build(3);
  std::optional<BroadcastResult> result;
  network_->Broadcast(0, {0, 1, 2}, Request("hi"))
      .OnReady([&](BroadcastResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*result)[i].dc, i);
    ASSERT_TRUE((*result)[i].status.ok());
    EXPECT_EQ(Payload((*result)[i].response),
              std::to_string(i) + ":hi");
  }
}

TEST_F(NetworkTest, BroadcastWithDownTargetMarksItTimedOut) {
  Build(3);
  network_->SetDatacenterDown(2, true);
  std::optional<BroadcastResult> result;
  network_->Broadcast(0, {0, 1, 2}, Request("hi"), 30 * kMillisecond)
      .OnReady([&](BroadcastResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE((*result)[0].status.ok());
  EXPECT_TRUE((*result)[1].status.ok());
  EXPECT_TRUE((*result)[2].status.IsTimedOut());
}

TEST_F(NetworkTest, EmptyBroadcastResolvesImmediately) {
  Build(2);
  std::optional<BroadcastResult> result;
  network_->Broadcast(0, {}, Request("hi"))
      .OnReady([&](BroadcastResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

TEST_F(NetworkTest, MessageStatsCount) {
  Build(2);
  network_->Call(0, 1, Request("x"));
  sim_.Run();
  EXPECT_EQ(network_->messages_sent(), 2u);  // request + response
  EXPECT_EQ(network_->calls_started(), 1u);
  network_->ResetStats();
  EXPECT_EQ(network_->messages_sent(), 0u);
}

TEST_F(NetworkTest, JitterStaysWithinBounds) {
  NetworkOptions options;
  options.latency_jitter = 0.1;
  options.seed = 9;
  std::vector<std::vector<TimeMicros>> rtt(2,
                                           std::vector<TimeMicros>(2, kRtt));
  Network network(&sim_, rtt, options);
  network.RegisterEndpoint(1, EchoHandler(&sim_, 1));
  for (int i = 0; i < 20; ++i) {
    TimeMicros start = sim_.Now();
    std::optional<CallResult> result;
    TimeMicros completed_at = -1;
    network.Call(0, 1, Request("x"))
        .OnReady([&](CallResult&& r) {
          result = std::move(r);
          completed_at = sim_.Now();
        });
    sim_.Run();  // drains the response and the (losing) timeout event
    ASSERT_TRUE(result->status.ok());
    const TimeMicros elapsed = completed_at - start;
    EXPECT_GE(elapsed, static_cast<TimeMicros>(kRtt * 0.9) - 2);
    EXPECT_LE(elapsed, static_cast<TimeMicros>(kRtt * 1.1) + 2);
  }
}

// ---- In-flight outage semantics (ARCHITECTURE.md design note D6) --------
// Intended semantics, pinned here: a message is lost if its destination (or
// the directed link it travels) goes down at ANY point during its flight,
// even if the fault heals before the scheduled delivery; a message whose
// source dies after it left is still delivered; responses already delivered
// stand.

TEST_F(NetworkTest, DownUpFlapWithinFlightWindowLosesMessage) {
  Build(2);
  std::optional<CallResult> result;
  network_->Call(0, 1, Request("x"), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  // One-way delay is kRtt/2 = 5 ms. The destination flaps down at 1 ms and
  // is back UP at 2 ms — well before the delivery event at 5 ms. The
  // message crossed an outage window, so it must be lost; a delivery-time
  // check alone would (wrongly) deliver it.
  sim_.ScheduleAfter(1 * kMillisecond,
                     [&] { network_->SetDatacenterDown(1, true); });
  sim_.ScheduleAfter(2 * kMillisecond,
                     [&] { network_->SetDatacenterDown(1, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

TEST_F(NetworkTest, DownUpDownFlapsWithinOneTimeoutWindow) {
  Build(2);
  // dc1 flaps twice inside a single 50 ms RPC timeout: down 1-2 ms, up
  // 2-3 ms, down 3-4 ms, up from 4 ms.
  for (TimeMicros t : {1, 3}) {
    sim_.ScheduleAfter(t * kMillisecond,
                       [&] { network_->SetDatacenterDown(1, true); });
    sim_.ScheduleAfter((t + 1) * kMillisecond,
                       [&] { network_->SetDatacenterDown(1, false); });
  }
  // Sent before the first flap, delivery (5 ms) after the last: lost.
  std::optional<CallResult> flapped;
  network_->Call(0, 1, Request("a"), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { flapped = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(flapped.has_value());
  EXPECT_TRUE(flapped->status.IsTimedOut());

  // Sent after the last recovery, same timeout window: clean round trip.
  std::optional<CallResult> clean;
  network_->Call(0, 1, Request("b"), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { clean = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(clean->status.ok()) << clean->status.ToString();
}

TEST_F(NetworkTest, BroadcastTargetFlappingMidFlightIsLostOthersStand) {
  Build(3);
  std::optional<BroadcastResult> result;
  network_->Broadcast(0, {0, 1, 2}, Request("hi"), 50 * kMillisecond)
      .OnReady([&](BroadcastResult&& r) { result = std::move(r); });
  // dc2 goes down while the broadcast's requests are in flight and is back
  // before their arrival; dc0/dc1 deliveries already under way are
  // unaffected and their responses stand.
  sim_.ScheduleAfter(1 * kMillisecond,
                     [&] { network_->SetDatacenterDown(2, true); });
  sim_.ScheduleAfter(2 * kMillisecond,
                     [&] { network_->SetDatacenterDown(2, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE((*result)[0].status.ok());
  EXPECT_TRUE((*result)[1].status.ok());
  EXPECT_TRUE((*result)[2].status.IsTimedOut());
}

TEST_F(NetworkTest, ResponseInFlightFromDownedSourceStillArrives) {
  Build(2);
  std::optional<CallResult> result;
  network_->Call(0, 1, Request("x"), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  // The response leaves dc1 at ~5 ms (instant handler); dc1 dies at 7 ms
  // while its response is in flight. The message already left the downed
  // datacenter, so it is delivered.
  sim_.ScheduleAfter(7 * kMillisecond,
                     [&] { network_->SetDatacenterDown(1, true); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(Payload(result->response), "1:x");
}

// ---- Asymmetric (one-way) link cuts --------------------------------------

TEST_F(NetworkTest, OneWayLinkCutBlocksOnlyThatDirection) {
  Build(3);
  int handled_at_0 = 0, handled_at_1 = 0;
  network_->RegisterEndpoint(
      0, [&](DcId, const ServiceRequest*) -> sim::Coro<ServiceResponse> {
        ++handled_at_0;
        co_return Reply("pong0");
      });
  network_->RegisterEndpoint(
      1, [&](DcId, const ServiceRequest*) -> sim::Coro<ServiceResponse> {
        ++handled_at_1;
        co_return Reply("pong1");
      });
  network_->SetLinkOneWayDown(0, 1, true);

  // 0 -> 1: the request itself travels the cut direction, never arrives.
  std::optional<CallResult> forward;
  network_->Call(0, 1, Request("x"), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { forward = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(forward->status.IsTimedOut());
  EXPECT_EQ(handled_at_1, 0);

  // 1 -> 0: the request arrives and is served; only the response (which
  // travels 0 -> 1) is black-holed. The caller sees the same timeout but
  // the side effect happened — the asymmetry 2PC/Paxos must tolerate.
  std::optional<CallResult> reverse;
  network_->Call(1, 0, Request("y"), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { reverse = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(reverse->status.IsTimedOut());
  EXPECT_EQ(handled_at_0, 1);

  // Unrelated pairs are untouched.
  std::optional<CallResult> other;
  network_->Call(2, 1, Request("z"), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { other = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(other->status.ok());

  // Healing restores the direction.
  network_->SetLinkOneWayDown(0, 1, false);
  std::optional<CallResult> healed;
  network_->Call(0, 1, Request("w"), 30 * kMillisecond)
      .OnReady([&](CallResult&& r) { healed = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(healed->status.ok());
  EXPECT_EQ(handled_at_1, 2);
}

TEST_F(NetworkTest, OneWayCutMidFlightDropsTheResponse) {
  Build(2);
  std::optional<CallResult> result;
  network_->Call(0, 1, Request("x"), 50 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  // Cut the response direction (1 -> 0) at 7 ms, while the response is in
  // flight (left dc1 at ~5 ms, due at ~10 ms); heal immediately after. The
  // in-flight response is lost even though the link is up at delivery time.
  sim_.ScheduleAfter(7 * kMillisecond,
                     [&] { network_->SetLinkOneWayDown(1, 0, true); });
  sim_.ScheduleAfter(8 * kMillisecond,
                     [&] { network_->SetLinkOneWayDown(1, 0, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.IsTimedOut());
}

// ---- Adversarial delivery faults (ARCHITECTURE.md design note D10) -------
// Duplication re-delivers the REQUEST (the handler runs twice — the
// idempotence exercise); responses race into a first-set-wins promise, so
// the caller always sees exactly one result. All duplication/reorder
// randomness draws from a dedicated fault stream, so enabling the faults
// never perturbs the primary copies' delivery schedule.

TEST_F(NetworkTest, DuplicateDeliversHandlerTwice) {
  Build(2);
  network_->set_duplicate_probability(1.0);
  int handled = 0;
  network_->RegisterEndpoint(
      1, [&](DcId, const ServiceRequest*) -> sim::Coro<ServiceResponse> {
        ++handled;
        co_return Reply("pong");
      });
  std::optional<CallResult> result;
  network_->Call(0, 1, Request("x"))
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(handled, 2);  // both copies reach the handler
  EXPECT_EQ(network_->messages_duplicated(), 1u);
}

TEST_F(NetworkTest, ReorderHoldsMessageBackWithinBound) {
  NetworkOptions options;
  options.reorder_probability = 1.0;
  options.reorder_extra_max = 20 * kMillisecond;
  Build(2, options);
  std::optional<CallResult> result;
  TimeMicros completed_at = -1;
  network_->Call(0, 1, Request("x"), 2 * kSecond)
      .OnReady([&](CallResult&& r) {
        result = std::move(r);
        completed_at = sim_.Now();
      });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok());
  // Both legs drew an extra in (0, 20 ms]; total must exceed the clean RTT
  // and stay under RTT + 2 * extra_max (plus delivery-event slack).
  EXPECT_GT(completed_at, kRtt);
  EXPECT_LE(completed_at, kRtt + 2 * options.reorder_extra_max + 2);
  EXPECT_EQ(network_->messages_reordered(), 2u);  // request + response
}

TEST_F(NetworkTest, DeliveryFaultsAreDeterministicPerSeed) {
  // Same seed, same call pattern -> identical delivery schedule, twice.
  auto run_once = [&](std::vector<TimeMicros>* completions,
                      uint64_t* duplicated, uint64_t* reordered) {
    sim::Simulator sim;
    NetworkOptions options;
    options.seed = 42;
    options.latency_jitter = 0.1;
    options.duplicate_probability = 0.3;
    options.reorder_probability = 0.3;
    options.reorder_extra_max = 15 * kMillisecond;
    std::vector<std::vector<TimeMicros>> rtt(
        3, std::vector<TimeMicros>(3, kRtt));
    Network network(&sim, rtt, options);
    for (DcId dc = 0; dc < 3; ++dc) {
      network.RegisterEndpoint(dc, EchoHandler(&sim, dc));
    }
    for (int i = 0; i < 40; ++i) {
      network.Call(0, 1 + i % 2, Request(std::to_string(i)))
          .OnReady([&](CallResult&&) { completions->push_back(sim.Now()); });
      sim.Run();
    }
    *duplicated = network.messages_duplicated();
    *reordered = network.messages_reordered();
  };
  std::vector<TimeMicros> first, second;
  uint64_t dup1 = 0, dup2 = 0, re1 = 0, re2 = 0;
  run_once(&first, &dup1, &re1);
  run_once(&second, &dup2, &re2);
  EXPECT_EQ(first, second);
  EXPECT_EQ(dup1, dup2);
  EXPECT_EQ(re1, re2);
  EXPECT_GT(dup1, 0u);  // the sweep actually exercised both faults
  EXPECT_GT(re1, 0u);
}

TEST_F(NetworkTest, FaultStreamNeverPerturbsPrimarySchedule) {
  // With jitter on (so the main RNG stream is live), enabling duplication
  // must leave every primary copy's completion time untouched: duplicate
  // scheduling and the duplicate's response leg draw only from the fault
  // stream.
  auto run_once = [&](double duplicate_probability,
                      std::vector<TimeMicros>* completions) {
    sim::Simulator sim;
    NetworkOptions options;
    options.seed = 7;
    options.latency_jitter = 0.1;
    options.duplicate_probability = duplicate_probability;
    std::vector<std::vector<TimeMicros>> rtt(
        2, std::vector<TimeMicros>(2, kRtt));
    Network network(&sim, rtt, options);
    network.RegisterEndpoint(1, EchoHandler(&sim, 1));
    for (int i = 0; i < 30; ++i) {
      network.Call(0, 1, Request(std::to_string(i)))
          .OnReady([&](CallResult&&) { completions->push_back(sim.Now()); });
      sim.Run();
    }
  };
  std::vector<TimeMicros> clean, duplicated;
  run_once(0.0, &clean);
  run_once(1.0, &duplicated);
  EXPECT_EQ(clean, duplicated);
}

TEST_F(NetworkTest, DuplicateRespectsOutageWindows) {
  // The duplicate captures the same channel epoch as its original (D6): a
  // flap between the primary delivery and the duplicate's later delivery
  // kills the duplicate even though the link is up again when it arrives.
  NetworkOptions options;
  options.duplicate_probability = 1.0;
  options.reorder_extra_max = 20 * kMillisecond;  // bounds the dup lag
  Build(2, options);
  int handled = 0;
  network_->RegisterEndpoint(
      1, [&](DcId, const ServiceRequest*) -> sim::Coro<ServiceResponse> {
        ++handled;
        co_return Reply("pong");
      });
  std::optional<CallResult> result;
  network_->Call(0, 1, Request("x"), 100 * kMillisecond)
      .OnReady([&](CallResult&& r) { result = std::move(r); });
  // Primary arrives at 5 ms; the duplicate lags it by (0, 20 ms]. Flap the
  // destination down/up in between: epoch bumped, duplicate dead on
  // arrival.
  sim_.ScheduleAfter(5 * kMillisecond + 100,
                     [&] { network_->SetDatacenterDown(1, true); });
  sim_.ScheduleAfter(5 * kMillisecond + 200,
                     [&] { network_->SetDatacenterDown(1, false); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(handled, 1);  // only the primary copy was delivered
  EXPECT_EQ(network_->messages_duplicated(), 1u);
}

TEST_F(NetworkTest, RecoveredDatacenterServesAgain) {
  Build(2);
  network_->SetDatacenterDown(1, true);
  std::optional<CallResult> first, second;
  network_->Call(0, 1, Request("a"), 20 * kMillisecond)
      .OnReady([&](CallResult&& r) { first = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(first->status.IsTimedOut());

  network_->SetDatacenterDown(1, false);
  network_->Call(0, 1, Request("b"), 20 * kMillisecond)
      .OnReady([&](CallResult&& r) { second = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(second->status.ok());
}


// ---- One shared payload --------------------------------------------------
// A request is built once and shared: every broadcast target, and every
// duplicate copy, hands its handler the very same object.

TEST_F(NetworkTest, BroadcastTargetsAndDuplicatesShareOneRequest) {
  NetworkOptions options;
  options.duplicate_probability = 1.0;  // every inter-DC request twice
  Build(3, options);
  std::vector<const ServiceRequest*> seen;
  for (DcId dc = 0; dc < 3; ++dc) {
    network_->RegisterEndpoint(
        dc,
        [&](DcId, const ServiceRequest* request) -> sim::Coro<ServiceResponse> {
          seen.push_back(request);
          co_return Reply("pong");
        });
  }
  const std::shared_ptr<const ServiceRequest> request = Request("hi");
  std::optional<BroadcastResult> result;
  network_->Broadcast(0, {0, 1, 2}, request)
      .OnReady([&](BroadcastResult&& r) { result = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  // Three originals plus a duplicate to each of the two remote targets.
  EXPECT_EQ(network_->messages_duplicated(), 2u);
  ASSERT_EQ(seen.size(), 5u);
  for (const ServiceRequest* received : seen) {
    EXPECT_EQ(received, request.get());
  }
}

// ---- Exact delivery schedule under every randomized fault ----------------
// Loss, jitter, reorder and duplication all at once, 50 overlapping calls
// and broadcasts between datacenters with different RTTs and service times.
// The expected log pins every completion time and status, so it changes if
// any leg draws from the main or the fault RNG stream in a different order,
// or a message is counted differently.

TEST_F(NetworkTest, DeliveryScheduleUnderAllFaultsMatchesGolden) {
  NetworkOptions options;
  options.seed = 2024;
  options.latency_jitter = 0.2;
  options.loss_probability = 0.1;
  options.duplicate_probability = 0.3;
  options.reorder_probability = 0.3;
  options.reorder_extra_max = 15 * kMillisecond;
  options.default_timeout = 150 * kMillisecond;
  const std::vector<std::vector<TimeMicros>> rtt = {
      {1000, 10 * kMillisecond, 40 * kMillisecond},
      {10 * kMillisecond, 1000, 30 * kMillisecond},
      {40 * kMillisecond, 30 * kMillisecond, 1000}};
  Network network(&sim_, rtt, options);
  int handled = 0;
  for (DcId dc = 0; dc < 3; ++dc) {
    network.RegisterEndpoint(
        dc, [this, dc, &handled](
                DcId, const ServiceRequest*) -> sim::Coro<ServiceResponse> {
          ++handled;
          co_await sim::SleepFor(&sim_, (dc + 1) * 500);
          co_return Reply("ok");
        });
  }
  // "<op>@<completion time><one status letter per target> ", in completion
  // order; O = ok, T = timed out, U = unavailable.
  std::string log;
  auto note = [&](int op, const std::vector<Status>& statuses) {
    log += std::to_string(op) + "@" + std::to_string(sim_.Now());
    for (const Status& s : statuses) {
      log += s.ok() ? "O" : s.IsTimedOut() ? "T" : "U";
    }
    log += " ";
  };
  const std::shared_ptr<const ServiceRequest> request = Request("x");
  for (int op = 0; op < 50; ++op) {
    sim_.ScheduleAfter(op * 4 * kMillisecond, [&, op] {
      const DcId from = op % 3;
      if (op % 5 == 4) {
        network.Broadcast(from, {0, 1, 2}, request)
            .OnReady([&, op](BroadcastResult&& r) {
              std::vector<Status> statuses;
              for (const TargetResult& t : r) statuses.push_back(t.status);
              note(op, statuses);
            });
      } else {
        const DcId to = op % 7 == 0 ? from : (from + 1 + (op / 3) % 2) % 3;
        network.Call(from, to, request, op % 2 == 0 ? 60 * kMillisecond : 0)
            .OnReady([&, op](CallResult&& r) { note(op, {r.status}); });
      }
    });
  }
  sim_.Run();
  EXPECT_EQ(log,
            "0@1467O 7@30009O 6@35009O 4@48532OOO 2@50529O 5@60559O 3@63424O "
            "12@64734O 9@73436OOO 18@83003O 21@85371O 13@85817O 8@92000T "
            "17@99327O 14@99593OOO 10@100000T 15@103743O 28@114053O "
            "19@119315OOO 16@124000T 25@129979O 30@132073O 20@132581O "
            "24@135396OOO 35@142431O 22@148000T 31@151747O 27@152722O "
            "1@154000T 29@154600OOO 26@164000T 32@165362O 42@169534O "
            "40@170341O 36@171102O 34@172850OOO 37@184522O 11@194000T "
            "41@196690O 48@203537O 46@203880O 38@205407O 43@209114O "
            "39@211703OOO 44@219185OOO 45@226636O 47@234593O 23@242000T "
            "33@282000T 49@346000OOT ");
  EXPECT_EQ(handled, 77);
  EXPECT_EQ(network.calls_started(), 70u);
  EXPECT_EQ(network.messages_sent(), 162u);
  EXPECT_EQ(network.messages_dropped(), 12u);
  EXPECT_EQ(network.messages_duplicated(), 15u);
  EXPECT_EQ(network.messages_reordered(), 28u);
}

}  // namespace
}  // namespace paxoscp::net
