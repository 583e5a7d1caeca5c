// Unit tests for the sharded engine's calendar records and slot ordering
// (sim/core/calendar.hpp): SlotMerger::order must produce exactly the
// std::sort order on the full 64-bit (sent_at, src) key for any slot
// shape the engine can build, and a record must round-trip every Message
// field a receiver can observe, through a slot and through the
// outbox -> slot append path.
//
// These tests carry the ctest label `sanitize` (the merge's index
// arithmetic runs under ASan/UBSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "proto/message.hpp"
#include "sim/core/calendar.hpp"
#include "sim/core/network_model.hpp"
#include "sim/fault/byzantine.hpp"

namespace cg {
namespace {

static_assert(sizeof(CalRecord) == 32);
static_assert(sizeof(BoundaryRecord) == 40);
static_assert(sizeof(Message) == 56);  // what a record no longer carries

CalRecord key_record(Step sent_at, NodeId src, NodeId to) {
  Message m;
  m.src = src;
  std::vector<NodeId> unused;
  return pack_record(sent_at, to, m, unused);
}

// A slot of `runs` canonically sorted runs over unique (sent_at, src)
// keys, with sends jittered over [due - max_delay, due - 1].  `to` is the
// key's serial number, so the ordered slot can be checked against the
// reference without comparing packed fields.
struct Slot {
  std::vector<CalRecord> recs;
  std::vector<std::pair<Step, NodeId>> keys;  // by serial number
};

Slot random_slot(std::mt19937_64& rng, Step due, Step max_delay, int runs,
                 int max_run_len) {
  std::uniform_int_distribution<Step> sent(due - max_delay, due - 1);
  std::uniform_int_distribution<NodeId> src(0, 4095);
  std::uniform_int_distribution<int> len(0, max_run_len);
  std::set<std::pair<Step, NodeId>> used;
  Slot s;
  for (int r = 0; r < runs; ++r) {
    std::vector<std::pair<Step, NodeId>> run;
    const int m = len(rng);
    while (static_cast<int>(run.size()) < m) {
      const std::pair<Step, NodeId> k{sent(rng), src(rng)};
      if (used.insert(k).second) run.push_back(k);
    }
    std::sort(run.begin(), run.end());
    for (const auto& k : run) {
      s.recs.push_back(
          key_record(k.first, k.second, static_cast<NodeId>(s.keys.size())));
      s.keys.push_back(k);
    }
  }
  return s;
}

// Serial numbers of the slot's entries in reference (std::sort on the
// full 64-bit key) order.
std::vector<NodeId> reference_order(const Slot& s) {
  std::vector<NodeId> idx(s.keys.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<NodeId>(i);
  std::sort(idx.begin(), idx.end(), [&s](NodeId a, NodeId b) {
    return s.keys[static_cast<std::size_t>(a)] <
           s.keys[static_cast<std::size_t>(b)];
  });
  return idx;
}

std::vector<NodeId> serials(const std::vector<CalRecord>& recs) {
  std::vector<NodeId> out;
  for (const auto& r : recs) out.push_back(r.to);
  return out;
}

TEST(SlotMerger, MatchesSortOnRandomRunSlots) {
  std::mt19937_64 rng(20261018);
  SlotMerger merger;  // one merger across slots, like a shard's
  // Delivery steps straddling the 2^32 wrap of the narrowed send step,
  // and a step near zero.
  const Step dues[] = {200, (Step{1} << 32) + 3, (Step{1} << 33) - 1,
                       (Step{1} << 40) + 17};
  int slots = 0;
  for (const Step due : dues) {
    for (const Step max_delay : {Step{1}, Step{3}, Step{40}}) {
      for (int runs = 1; runs <= 9; ++runs) {
        for (int rep = 0; rep < 8; ++rep) {
          const int max_len = rep % 4 == 0 ? 1 : (rep % 4 == 1 ? 5 : 300);
          Slot s = random_slot(rng, due, max_delay, runs, max_len);
          const std::vector<NodeId> want = reference_order(s);
          merger.order(s.recs);
          ASSERT_EQ(serials(s.recs), want)
              << "due=" << due << " max_delay=" << max_delay
              << " runs=" << runs << " rep=" << rep;
          ++slots;
        }
      }
    }
  }
  EXPECT_EQ(slots, 4 * 3 * 9 * 8);
}

TEST(SlotMerger, EmptyAndOneEntrySlots) {
  SlotMerger merger;
  std::vector<CalRecord> empty;
  merger.order(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<CalRecord> one{key_record(5, 9, 0)};
  merger.order(one);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].src, 9);
}

TEST(SlotMerger, ShuffledSlotsMergeShortRuns) {
  // Sends issued from receive handlers arrive in delivery order: a
  // shuffled slot is hundreds of natural runs of one or two entries,
  // which the pairwise merge must still put in THE sorted order.
  std::mt19937_64 rng(7);
  SlotMerger merger;
  for (int rep = 0; rep < 20; ++rep) {
    Slot s = random_slot(rng, 1000, 8, 1, 500);
    std::shuffle(s.recs.begin(), s.recs.end(), rng);
    const std::vector<NodeId> want = reference_order(s);
    merger.order(s.recs);
    ASSERT_EQ(serials(s.recs), want) << "rep=" << rep;
  }
}

TEST(SlotMerger, ReverseRunsAndEqualSendSteps) {
  // Two shards' sends from the same step: the later-appended run holds
  // the smaller senders (shard 1's slot in a two-shard run).
  SlotMerger merger;
  std::vector<CalRecord> recs;
  for (NodeId s = 100; s < 200; ++s) recs.push_back(key_record(7, s, s));
  for (NodeId s = 0; s < 100; ++s) recs.push_back(key_record(7, s, s));
  merger.order(recs);
  for (std::size_t i = 0; i < recs.size(); ++i)
    ASSERT_EQ(recs[i].src, static_cast<NodeId>(i));
}

Message sample_message(int known_count, bool retrans, std::uint32_t payload,
                       int salt) {
  Message m;
  m.tag = static_cast<Tag>(salt % kTagCount);
  m.retrans = retrans ? 1 : 0;
  m.src = 1000 + salt;
  m.payload = payload;
  m.time = (Step{1} << 35) + salt;  // wider than 32 bits: not narrowed
  std::vector<NodeId> ids;
  for (int i = 0; i < known_count; ++i) ids.push_back(7 * salt + 3 * i + 1);
  m.set_known(ids);
  return m;
}

void expect_same_message(const Message& got, const Message& want) {
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.known_count, want.known_count);
  EXPECT_EQ(got.retrans, want.retrans);
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.payload, want.payload);
  EXPECT_EQ(got.time, want.time);
  // Every id, including the zeros past known_count.
  EXPECT_EQ(got.known, want.known);
}

TEST(CalRecord, PackUnpackRoundTrip) {
  const std::uint32_t payloads[] = {0, kTruePayload, kAltPayload,
                                    kForgedBit | 0x1234u, 0xffff'ffffu};
  int salt = 0;
  for (int kc = 0; kc <= kMaxKnownF + 1; ++kc) {
    for (const bool retrans : {false, true}) {
      for (const std::uint32_t payload : payloads) {
        ++salt;
        const Message m = sample_message(kc, retrans, payload, salt);
        std::vector<NodeId> known{-5, -6};  // records index past existing ids
        const CalRecord r = pack_record(Step{1} << 34, 77, m, known);
        EXPECT_EQ(r.to, 77);
        EXPECT_EQ(r.sent, 0u);  // low 32 bits of 2^34
        EXPECT_EQ(known.size(), 2u + static_cast<std::size_t>(kc));
        expect_same_message(unpack_record(r, known.data()), m);
        EXPECT_FALSE(rx_order_before(unpack_record(r, known.data()), m));
        EXPECT_FALSE(rx_order_before(m, unpack_record(r, known.data())));
      }
    }
  }
}

TEST(CalRecord, KnownIdsSurviveOutboxAppendAndMerge) {
  // Mixed known/no-known records go through a BoundaryBox, are appended
  // to a slot that already holds records with known ids, and are then
  // merged: each record must still unpack to its own message.
  std::vector<Message> sent;
  CalendarSlot slot;
  BoundaryBox box;
  for (int i = 0; i < 40; ++i) {
    const Message m = sample_message(i % 9, i % 3 == 0,
                                     i % 5 == 0 ? kForgedBit | 9u : 1u, i);
    sent.push_back(m);
    // Own sends at step 10 (ascending src); boundary sends at step 9.
    if (i % 2 == 0)
      slot.push(10, i, m);
    else
      box.push(30, 9, i, m);
  }
  for (const auto& bm : box.recs) {
    EXPECT_EQ(bm.at, 30);
    slot.append(bm.rec, box.known.data());
  }
  SlotMerger merger;
  merger.order(slot.recs);
  ASSERT_EQ(slot.recs.size(), sent.size());
  for (std::size_t k = 0; k < slot.recs.size(); ++k) {
    const CalRecord& r = slot.recs[k];
    // Step-9 (odd) records first, then step-10 (even), each by src.
    const bool first_half = k < sent.size() / 2;
    EXPECT_EQ(r.to % 2 == 1, first_half) << k;
    if (k > 0) {
      EXPECT_TRUE(canonical_before(slot.recs[k - 1], r)) << k;
    }
    expect_same_message(slot.message(r), sent[static_cast<std::size_t>(r.to)]);
  }
  slot.clear();
  EXPECT_TRUE(slot.empty());
  EXPECT_TRUE(slot.known.empty());
}

}  // namespace
}  // namespace cg
