// The same FastCast protocol objects the simulator runs, deployed over
// real TCP sockets: 2 groups × 3 replicas plus one client, each node a
// thread with its own socket transport, all inside this process. The
// client multicasts 30 global messages and prints the measured latency.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "fastcast/amcast/client_stub.hpp"
#include "fastcast/amcast/fastcast.hpp"
#include "fastcast/amcast/node.hpp"
#include "fastcast/checker/checker.hpp"
#include "fastcast/common/stats.hpp"
#include "fastcast/net/tcp_cluster.hpp"

using namespace fastcast;

namespace {

constexpr int kMessages = 30;

class DemoClient : public Process {
 public:
  DemoClient(std::mutex* mu, Checker* checker, LatencyRecorder* latencies,
             std::atomic<int>* completed)
      : mu_(mu), checker_(checker), latencies_(latencies), completed_(completed) {}

  void on_start(Context& ctx) override {
    stub_.on_start(ctx);
    send_next(ctx);
  }

  void on_message(Context& ctx, NodeId from, const Message& msg) override {
    if (const auto* ack = std::get_if<AmAck>(&msg.payload)) {
      if (ack->mid != outstanding_) return;  // later replicas' acks
      {
        std::lock_guard<std::mutex> lock(*mu_);
        latencies_->add(ctx.now() - sent_at_);
      }
      outstanding_ = 0;
      completed_->fetch_add(1);
      if (next_seq_ < kMessages) send_next(ctx);
      return;
    }
    stub_.handle(ctx, from, msg);
  }

 private:
  void send_next(Context& ctx) {
    MulticastMessage m;
    m.id = make_msg_id(ctx.self(), next_seq_++);
    m.sender = ctx.self();
    m.dst = {0, 1};
    m.payload = "hello over tcp";
    outstanding_ = m.id;
    sent_at_ = ctx.now();
    {
      std::lock_guard<std::mutex> lock(*mu_);
      checker_->note_multicast(m);
    }
    stub_.amulticast(ctx, m);
  }

  GenuineClientStub stub_;
  std::mutex* mu_;
  Checker* checker_;
  LatencyRecorder* latencies_;
  std::atomic<int>* completed_;
  std::uint32_t next_seq_ = 0;
  MsgId outstanding_ = 0;
  Time sent_at_ = 0;
};

}  // namespace

int main() {
  Membership membership;
  membership.add_group(3, {0, 0, 0});
  membership.add_group(3, {0, 0, 0});
  const NodeId client_node = membership.add_client(0);

  net::TcpCluster::Config cfg;
  cfg.membership = membership;
  cfg.base_port = 19300;
  net::TcpCluster cluster(std::move(cfg));

  std::mutex mu;
  Checker checker(&membership);
  LatencyRecorder latencies;
  std::atomic<int> completed{0};

  for (NodeId n : membership.all_replicas()) {
    const GroupId g = membership.group_of(n);
    TimestampProtocolBase::Config pc;
    pc.group = g;
    pc.consensus.group = g;
    pc.consensus.members = membership.members(g);
    auto node = std::make_shared<ReplicaNode>(std::make_shared<FastCast>(pc, n));
    node->add_observer([&mu, &checker](Context& ctx, const MulticastMessage& m) {
      std::lock_guard<std::mutex> lock(mu);
      checker.note_delivery(ctx.self(), m.id);
    });
    cluster.add_process(n, node);
  }
  cluster.add_process(client_node, std::make_shared<DemoClient>(
                                       &mu, &checker, &latencies, &completed));

  std::printf("starting 7 nodes (6 replicas + 1 client) on 127.0.0.1:19300+...\n");
  cluster.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (completed.load() < kMessages &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // stragglers
  cluster.stop();

  std::lock_guard<std::mutex> lock(mu);
  std::printf("completed %d/%d multicasts over TCP\n", completed.load(), kMessages);
  if (!latencies.empty()) {
    std::printf("latency: median %.3f ms, p95 %.3f ms, max %.3f ms\n",
                to_milliseconds(latencies.median()),
                to_milliseconds(latencies.percentile(95)),
                to_milliseconds(latencies.max()));
  }
  const auto report = checker.check(/*quiesced=*/true);
  std::printf("checker: %s\n", report.ok
                                   ? "all atomic-multicast properties hold"
                                   : report.violations[0].c_str());
  return (completed.load() == kMessages && report.ok) ? 0 : 1;
}
