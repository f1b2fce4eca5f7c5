// DeliveryBuffer ("B") unit tests: FINAL formation, the blocking guard,
// tie-breaking, placeholder handling, body stalls.

#include <gtest/gtest.h>

#include <algorithm>

#include "fastcast/amcast/delivery_buffer.hpp"

namespace fastcast {
namespace {

/// Minimal Context: the buffer only threads it through to callbacks.
class FakeContext final : public Context {
 public:
  FakeContext() {
    membership_.add_group(1, {0});
  }
  NodeId self() const override { return 0; }
  Time now() const override { return 0; }
  void send(NodeId, const Message&) override {}
  TimerId set_timer(Duration, std::function<void()>) override { return 1; }
  void cancel_timer(TimerId) override {}
  Rng& rng() override { return rng_; }
  const Membership& membership() const override { return membership_; }

 private:
  Rng rng_;
  Membership membership_;
};

MulticastMessage msg(MsgId id, std::vector<GroupId> dst) {
  MulticastMessage m;
  m.id = id;
  m.sender = 9;
  m.dst = std::move(dst);
  m.payload = "body";
  return m;
}

struct Fixture : testing::Test {
  void SetUp() override {
    buffer.set_deliver([this](Context&, const MulticastMessage& m,
                              const DeliveryBuffer::Record&) {
      delivered.push_back(m.id);
    });
  }
  FakeContext ctx;
  DeliveryBuffer buffer;
  std::vector<MsgId> delivered;
};

using DeliveryBufferTest = Fixture;

TEST_F(DeliveryBufferTest, LocalMessageDeliversOnSingleSyncHard) {
  buffer.store_body(ctx, msg(1, {0}));
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 5, 1);
  EXPECT_EQ(delivered, (std::vector<MsgId>{1}));
}

TEST_F(DeliveryBufferTest, GlobalMessageWaitsForAllGroups) {
  buffer.store_body(ctx, msg(1, {0, 1}));
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 5, 1);
  EXPECT_TRUE(delivered.empty());
  buffer.add_entry(ctx, EntryKind::kSyncHard, 1, 7, 1);
  EXPECT_EQ(delivered, (std::vector<MsgId>{1}));
}

TEST_F(DeliveryBufferTest, DeliveryStallsUntilBodyArrives) {
  buffer.note_dst(1, {0});
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 5, 1);
  EXPECT_TRUE(delivered.empty());  // FINAL formed but no body yet
  buffer.store_body(ctx, msg(1, {0}));
  EXPECT_EQ(delivered, (std::vector<MsgId>{1}));
}

TEST_F(DeliveryBufferTest, SmallerTentativeTimestampBlocksDelivery) {
  // Message 1 final ts 10; message 2 has a pending entry at ts 4 -> block.
  buffer.store_body(ctx, msg(1, {0}));
  buffer.store_body(ctx, msg(2, {0, 1}));
  buffer.add_entry(ctx, EntryKind::kPendingHard, 0, 4, 2);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 10, 1);
  EXPECT_TRUE(delivered.empty());
  // Message 2's final resolves to 12 > 10: both deliver, 1 first.
  buffer.remove_pending_hard(ctx, 2, 0);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 11, 2);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 1, 12, 2);
  EXPECT_EQ(delivered, (std::vector<MsgId>{1, 2}));
}

TEST_F(DeliveryBufferTest, SyncSoftEntriesBlockToo) {
  buffer.store_body(ctx, msg(1, {0}));
  buffer.store_body(ctx, msg(2, {0, 1}));
  buffer.add_entry(ctx, EntryKind::kSyncSoft, 0, 3, 2);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 10, 1);
  EXPECT_TRUE(delivered.empty());
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 3, 2);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 1, 4, 2);
  // Message 2 final = 4 < 10: it delivers first, then 1.
  EXPECT_EQ(delivered, (std::vector<MsgId>{2, 1}));
}

TEST_F(DeliveryBufferTest, EqualTimestampsTieBreakByMsgId) {
  // Park both messages behind pending placeholders so neither can deliver
  // before the other is known, then resolve them: the (ts, mid) tie-break
  // must deliver mid 3 before mid 7 on every replica. (Bodies arrive in
  // their sender's order, as rmcast's per-origin FIFO guarantees.)
  buffer.store_body(ctx, msg(3, {0, 1}));
  buffer.store_body(ctx, msg(7, {0, 1}));
  buffer.add_entry(ctx, EntryKind::kPendingHard, 0, 5, 7);
  buffer.add_entry(ctx, EntryKind::kPendingHard, 0, 5, 3);
  buffer.remove_pending_hard(ctx, 7, 0);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 5, 7);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 1, 5, 7);
  EXPECT_TRUE(delivered.empty());  // blocked by message 3's placeholder
  buffer.remove_pending_hard(ctx, 3, 0);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 5, 3);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 1, 5, 3);
  EXPECT_EQ(delivered, (std::vector<MsgId>{3, 7}));
}

TEST_F(DeliveryBufferTest, FinalIsMaxOfGroupTimestamps) {
  buffer.store_body(ctx, msg(1, {0, 1, 2}));
  buffer.store_body(ctx, msg(2, {0}));
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 1, 1);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 1, 9, 1);
  // Message 2 (ts 5) becomes known before message 1 completes; once both
  // finals exist, 2's final (5) must precede 1's final max(1,9,2) = 9.
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 5, 2);
  // Message 1's tentative ts 1 conservatively blocks message 2's final.
  EXPECT_TRUE(delivered.empty());
  buffer.add_entry(ctx, EntryKind::kSyncHard, 2, 2, 1);
  EXPECT_EQ(delivered, (std::vector<MsgId>{2, 1}));
}

TEST_F(DeliveryBufferTest, DuplicateEntriesIgnored) {
  buffer.store_body(ctx, msg(1, {0, 1}));
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 5, 1);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 5, 1);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 6, 1);  // same (kind, group)
  EXPECT_EQ(buffer.blocking_count(), 1u);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 1, 6, 1);
  EXPECT_EQ(delivered, (std::vector<MsgId>{1}));
}

TEST_F(DeliveryBufferTest, LateEntriesAfterFinalAreIgnored) {
  buffer.store_body(ctx, msg(1, {0, 1}));
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 5, 1);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 1, 6, 1);
  EXPECT_EQ(delivered.size(), 1u);
  // Slow-path stragglers for a delivered message must not resurrect it.
  buffer.add_entry(ctx, EntryKind::kSyncSoft, 0, 5, 1);
  buffer.note_dst(1, {0, 1});
  EXPECT_EQ(buffer.undelivered_count(), 0u);
  EXPECT_EQ(buffer.blocking_count(), 0u);
}

TEST_F(DeliveryBufferTest, PendingHardPlaceholderPreventsOvertaking) {
  // The scenario that motivates the placeholder (DESIGN.md): message 2's
  // SET-HARD decided with ts 4 before message 1's remote SYNC-HARD(ts 10)
  // was ordered. Without the placeholder, message 1 (final 10) would be
  // delivered before message 2 (final 6).
  buffer.store_body(ctx, msg(1, {0, 1}));
  buffer.store_body(ctx, msg(2, {0, 1}));
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 3, 1);
  buffer.add_entry(ctx, EntryKind::kPendingHard, 0, 4, 2);  // SET-HARD decide
  buffer.add_entry(ctx, EntryKind::kSyncHard, 1, 10, 1);    // m1 complete
  EXPECT_TRUE(delivered.empty()) << "m1 overtook m2's pending timestamp";
  buffer.remove_pending_hard(ctx, 2, 0);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 4, 2);
  buffer.add_entry(ctx, EntryKind::kSyncHard, 1, 6, 2);
  EXPECT_EQ(delivered, (std::vector<MsgId>{2, 1}));
}

TEST_F(DeliveryBufferTest, SyncSoftLookup) {
  buffer.note_dst(1, {0, 1});
  EXPECT_FALSE(buffer.sync_soft_ts(1, 0).has_value());
  buffer.add_entry(ctx, EntryKind::kSyncSoft, 0, 8, 1);
  ASSERT_TRUE(buffer.sync_soft_ts(1, 0).has_value());
  EXPECT_EQ(*buffer.sync_soft_ts(1, 0), 8u);
  EXPECT_FALSE(buffer.sync_soft_ts(1, 1).has_value());
  EXPECT_FALSE(buffer.has_sync_hard(1, 0));
}

TEST_F(DeliveryBufferTest, CountsAndDeliveredTracking) {
  buffer.store_body(ctx, msg(1, {0}));
  EXPECT_EQ(buffer.undelivered_count(), 1u);
  EXPECT_FALSE(buffer.was_delivered(1));
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 1, 1);
  EXPECT_TRUE(buffer.was_delivered(1));
  EXPECT_EQ(buffer.delivered_count(), 1u);
  EXPECT_EQ(buffer.undelivered_count(), 0u);
}

TEST_F(DeliveryBufferTest, ManyMessagesDeliverInTimestampOrder) {
  // 50 local messages with shuffled timestamps arrive in random order;
  // delivery must follow (ts, mid) order exactly.
  std::vector<std::pair<Ts, MsgId>> entries;
  for (MsgId i = 1; i <= 50; ++i) entries.push_back({(i * 7) % 53 + 1, i});
  Rng rng(3);
  for (std::size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.uniform(i)]);
  }
  // Bodies arrive in their sender's order (rmcast is FIFO per origin).
  for (MsgId mid = 1; mid <= 50; ++mid) buffer.store_body(ctx, msg(mid, {0}));
  // Insert a pending placeholder for every message first so the guard has
  // to hold deliveries back, then resolve them in shuffled order.
  for (auto& [ts, mid] : entries) {
    buffer.add_entry(ctx, EntryKind::kPendingHard, 1, ts, mid);
  }
  for (auto& [ts, mid] : entries) {
    buffer.remove_pending_hard(ctx, mid, 1);
    buffer.add_entry(ctx, EntryKind::kSyncHard, 0, ts, mid);
  }
  ASSERT_EQ(delivered.size(), 50u);
  std::vector<std::pair<Ts, MsgId>> sorted = entries;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(delivered[i], sorted[i].second);
}

TEST_F(DeliveryBufferTest, RestoredBodyDeliversViaConsensusReplay) {
  // The durable-recovery shape: restore_durable re-installs persisted
  // bodies and then the delivered ids' START high-water, THEN the consensus
  // catch-up replays tuples through add_entry. The restored body
  // (restore_body deliberately never attempts delivery itself) must satisfy
  // the FINAL formed by the replay.
  buffer.restore_body(msg(1, {0}));
  buffer.restore_started(7);
  buffer.restore_body(msg(7, {0}));  // already delivered: must stay dropped
  EXPECT_TRUE(buffer.has_body(1));
  EXPECT_FALSE(buffer.has_body(7));
  EXPECT_TRUE(delivered.empty());
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 5, 1);
  EXPECT_EQ(delivered, (std::vector<MsgId>{1}));
  // Replayed tuples of the already-delivered message change nothing.
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 6, 7);
  EXPECT_EQ(delivered, (std::vector<MsgId>{1}));
}

TEST_F(DeliveryBufferTest, RestoreBodyAfterFinalFormedAborts) {
  // restore_body cannot retry delivery (no Context), so it relies on the
  // invariant that restore precedes any FINAL formation. This pins the
  // assert that turns a silent stalled-forever delivery into a loud crash
  // if the restore ordering is ever broken.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  buffer.note_dst(1, {0});
  buffer.add_entry(ctx, EntryKind::kSyncHard, 0, 5, 1);  // FINAL, no body
  EXPECT_EQ(buffer.undelivered_count(), 1u);
  EXPECT_TRUE(delivered.empty());  // stalled on the missing body
  EXPECT_DEATH(buffer.restore_body(msg(1, {0})), "restore must precede");
}

}  // namespace
}  // namespace fastcast
