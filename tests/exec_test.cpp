// Optimistic parallel execution engine tests.
//
// The contract under test: the speculative engine (multi-version overlay,
// instrumented read sets, wave scheduling, in-order validation, serial
// commit) produces results BIT-IDENTICAL to the retained serial path —
// state roots, receipts (tx id, success, gas, error strings), events, and
// gas totals — on every workload, including adversarial same-key nonce
// chains and transactions that fail at every stage (bad signature, stale
// nonce, contract error, out of gas). Plus: the pointer-based OverlayState
// read path (memoized flatten, pinned probe counts), MultiVersionState
// resolution semantics, ExecStats bookkeeping and their survival across
// Cluster::recover(), and a chaos sweep with speculation enabled.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "consensus/cluster.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "ledger/chain.hpp"
#include "ledger/state.hpp"
#include "storage/file_backend.hpp"
#include "test_util.hpp"

namespace tnp::ledger {
namespace {

using testutil::KvExecutor;
using testutil::make_add_tx;
using testutil::make_method_tx;
using testutil::make_set_tx;

/// Pins the global pool width for a test and restores the default after.
struct ScopedThreads {
  explicit ScopedThreads(std::size_t width) { set_global_thread_count(width); }
  ~ScopedThreads() { set_global_thread_count(0); }
};

// ---------------------------------------------------- OverlayState reads

/// StateReader wrapper counting how often the base is actually probed —
/// the satellite fix pins the memoized-flatten behavior with it.
class CountingReader final : public StateReader {
 public:
  explicit CountingReader(const StateReader& base) : base_(base) {}
  const Bytes* get_ptr(std::string_view key) const override {
    ++probes;
    return base_.get_ptr(key);
  }
  mutable std::size_t probes = 0;

 private:
  const StateReader& base_;
};

TEST(OverlayReadPathTest, ReadReturnsBorrowedPointerNotACopy) {
  WorldState world;
  world.set("k", to_bytes("value"));
  OverlayState overlay(world);
  // The overlay hot path hands back the world state's own bytes.
  EXPECT_EQ(overlay.get_ptr("k"), world.get_ptr("k"));
  // A buffered write shadows it with the overlay's own storage.
  overlay.set("k", to_bytes("new"));
  EXPECT_NE(overlay.get_ptr("k"), world.get_ptr("k"));
  EXPECT_EQ(*overlay.get_ptr("k"), to_bytes("new"));
}

TEST(OverlayReadPathTest, BaseFallThroughIsMemoized) {
  WorldState world;
  world.set("hit", to_bytes("v"));
  CountingReader counter(world);
  OverlayState overlay(static_cast<const StateReader&>(counter));

  for (int i = 0; i < 5; ++i) EXPECT_NE(overlay.get_ptr("hit"), nullptr);
  EXPECT_EQ(counter.probes, 1u);  // one probe, four memo hits

  // Misses are memoized too (repeated absent-key reads are one probe).
  for (int i = 0; i < 5; ++i) EXPECT_EQ(overlay.get_ptr("miss"), nullptr);
  EXPECT_EQ(counter.probes, 2u);

  // Own writes are consulted before the memo: no base probe at all.
  overlay.set("fresh", to_bytes("x"));
  for (int i = 0; i < 5; ++i) EXPECT_NE(overlay.get_ptr("fresh"), nullptr);
  EXPECT_EQ(counter.probes, 2u);

  // A tombstone shadows a memoized hit without touching the base.
  overlay.erase("hit");
  EXPECT_EQ(overlay.get_ptr("hit"), nullptr);
  EXPECT_EQ(counter.probes, 2u);
  // Rollback drops the tombstone; the memo still serves the base value.
  overlay.rollback();
  EXPECT_NE(overlay.get_ptr("hit"), nullptr);
  EXPECT_EQ(counter.probes, 2u);
}

TEST(OverlayReadPathTest, NestedOverlayWalksEachLayerOncePerKey) {
  WorldState world;
  world.set("deep", to_bytes("v"));
  CountingReader counter(world);
  OverlayState outer(static_cast<const StateReader&>(counter));
  OverlayState inner(outer);

  for (int i = 0; i < 4; ++i) EXPECT_NE(inner.get_ptr("deep"), nullptr);
  EXPECT_EQ(counter.probes, 1u);  // inner memoizes its walk through outer

  // Inner commit flushes into outer (not the world).
  inner.set("deep", to_bytes("w"));
  inner.commit();
  EXPECT_EQ(*outer.get_ptr("deep"), to_bytes("w"));
  EXPECT_EQ(*world.get_ptr("deep"), to_bytes("v"));
  EXPECT_EQ(counter.probes, 1u);
}

TEST(OverlayReadPathTest, TakeWritesLeavesOverlayEmpty) {
  WorldState world;
  OverlayState overlay(world);
  overlay.set("a", to_bytes("1"));
  overlay.erase("b");
  auto writes = overlay.take_writes();
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_TRUE(writes.at("a").has_value());
  EXPECT_FALSE(writes.at("b").has_value());  // tombstone
  EXPECT_EQ(overlay.pending(), 0u);
  EXPECT_EQ(world.size(), 0u);  // nothing flushed to the base
}

// ------------------------------------------------------ MultiVersionState

TEST(MultiVersionStateTest, ResolvesHighestWriterBelowReader) {
  WorldState base;
  base.set("k", to_bytes("base"));
  MultiVersionState mv(base, 8);

  OverlayState::WriteSet w2;
  w2["k"] = to_bytes("from2");
  mv.publish(2, w2);
  OverlayState::WriteSet w5;
  w5["k"] = to_bytes("from5");
  mv.publish(5, w5);

  // Reader 0..2 see the pre-block base; 3..5 see tx2; 6+ see tx5.
  auto r0 = mv.read("k", 0);
  EXPECT_EQ(r0.version.writer, ReadVersion::kBase);
  EXPECT_EQ(*r0.value, to_bytes("base"));
  auto r3 = mv.read("k", 3);
  EXPECT_EQ(r3.version.writer, 2);
  EXPECT_EQ(*r3.value, to_bytes("from2"));
  auto r5 = mv.read("k", 5);
  EXPECT_EQ(r5.version.writer, 2);  // strictly below the reader
  auto r7 = mv.read("k", 7);
  EXPECT_EQ(r7.version.writer, 5);
  EXPECT_EQ(*r7.value, to_bytes("from5"));
}

TEST(MultiVersionStateTest, TombstoneIsAbsentButVersioned) {
  WorldState base;
  base.set("k", to_bytes("base"));
  MultiVersionState mv(base, 4);
  OverlayState::WriteSet del;
  del["k"] = std::nullopt;
  mv.publish(1, del);

  auto r = mv.read("k", 3);
  EXPECT_EQ(r.value, nullptr);           // deleted
  EXPECT_EQ(r.version.writer, 1);        // but attributed to tx1,
  EXPECT_EQ(r.version.incarnation, 1u);  // not confused with base-absent
  EXPECT_EQ(mv.read("k", 1).version.writer, ReadVersion::kBase);
}

TEST(MultiVersionStateTest, RepublishBumpsIncarnationAndDropsStaleKeys) {
  WorldState base;
  MultiVersionState mv(base, 4);
  OverlayState::WriteSet first;
  first["a"] = to_bytes("1");
  first["b"] = to_bytes("1");
  mv.publish(1, first);
  EXPECT_EQ(mv.current_version("a", 3), (ReadVersion{1, 1}));
  EXPECT_EQ(mv.current_version("b", 3), (ReadVersion{1, 1}));

  // Re-execution writes only "a": "b" must vanish, "a" re-versions.
  OverlayState::WriteSet second;
  second["a"] = to_bytes("2");
  mv.publish(1, second);
  EXPECT_EQ(mv.current_version("a", 3), (ReadVersion{1, 2}));
  EXPECT_EQ(mv.current_version("b", 3), (ReadVersion{}));  // back to base
  EXPECT_EQ(mv.read("b", 3).value, nullptr);
}

TEST(SpeculativeViewTest, RecordsReadSetAndStaysStableAcrossRepublish) {
  WorldState base;
  base.set("k", to_bytes("base"));
  MultiVersionState mv(base, 4);
  SpeculativeStateView view(mv, 3);

  ASSERT_NE(view.get_ptr("k"), nullptr);
  EXPECT_EQ(*view.get_ptr("k"), to_bytes("base"));

  // Another tx publishes underneath: the view's memo pins what it saw (a
  // mid-execution re-read must not tear), while validation — comparing the
  // recorded version against current — detects the conflict.
  OverlayState::WriteSet w1;
  w1["k"] = to_bytes("changed");
  mv.publish(1, w1);
  EXPECT_EQ(*view.get_ptr("k"), to_bytes("base"));

  const auto& reads = view.reads();
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads.at("k").version, (ReadVersion{}));
  EXPECT_NE(mv.current_version("k", 3), reads.at("k").version);
}

// ------------------------------------------------- serial ≡ parallel

/// Asserts that two chains at the same height hold bit-identical results:
/// state root, tip, gas totals, and the tip block's receipts and events.
void expect_identical(const Blockchain& serial, const Blockchain& parallel) {
  ASSERT_EQ(serial.height(), parallel.height());
  EXPECT_EQ(serial.state().root(), parallel.state().root());
  EXPECT_EQ(serial.tip_hash(), parallel.tip_hash());
  EXPECT_EQ(serial.total_gas_used(), parallel.total_gas_used());
  const auto h = serial.height();
  const BlockResult& a = serial.result_at(h);
  const BlockResult& b = parallel.result_at(h);
  ASSERT_EQ(a.receipts.size(), b.receipts.size());
  for (std::size_t i = 0; i < a.receipts.size(); ++i) {
    EXPECT_EQ(a.receipts[i].tx_id, b.receipts[i].tx_id) << "tx " << i;
    EXPECT_EQ(a.receipts[i].success, b.receipts[i].success) << "tx " << i;
    EXPECT_EQ(a.receipts[i].gas_used, b.receipts[i].gas_used) << "tx " << i;
    EXPECT_EQ(a.receipts[i].error, b.receipts[i].error) << "tx " << i;
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].name, b.events[i].name) << "event " << i;
    EXPECT_EQ(a.events[i].data, b.events[i].data) << "event " << i;
  }
}

/// Serial-config and parallel-config chains driven with identical blocks;
/// every block's results must match bit-for-bit.
struct TwinChains {
  explicit TwinChains(ChainConfig base_config = {}) {
    ChainConfig serial_config = base_config;
    serial_config.parallel_execution = false;
    ChainConfig parallel_config = base_config;
    parallel_config.parallel_execution = true;
    serial = std::make_unique<Blockchain>(serial_exec, serial_config);
    parallel = std::make_unique<Blockchain>(parallel_exec, parallel_config);
  }

  /// Builds the block on the serial chain (tips are identical), applies it
  /// to both, and asserts full result equivalence at that height.
  void apply(std::vector<Transaction> txs) {
    const Block block = serial->make_block(std::move(txs), 0, 1000);
    ASSERT_TRUE(serial->apply_block(block).ok());
    ASSERT_TRUE(parallel->apply_block(block).ok());
    expect_identical(*serial, *parallel);
  }

  KvExecutor serial_exec, parallel_exec;
  std::unique_ptr<Blockchain> serial, parallel;
};

KeyPair test_key(std::uint64_t seed) {
  return KeyPair::generate(SigScheme::kHmacSim, seed);
}

TEST(ParallelEquivalenceTest, DisjointWritesMatchSerial) {
  ScopedThreads threads(4);
  TwinChains twins;
  std::vector<Transaction> txs;
  for (std::uint64_t i = 0; i < 16; ++i) {
    txs.push_back(make_set_tx(test_key(100 + i), 0, "k" + std::to_string(i),
                              "v" + std::to_string(i)));
  }
  twins.apply(std::move(txs));
  EXPECT_EQ(twins.parallel->exec_stats().parallel_blocks, 1u);
  EXPECT_EQ(twins.serial->exec_stats().serial_blocks, 1u);
}

TEST(ParallelEquivalenceTest, AdversarialSameSenderSameKeyChainMatchesSerial) {
  ScopedThreads threads(4);
  TwinChains twins;
  // One sender, one key: a pure dependency chain — every tx reads the
  // previous tx's nonce write and counter write. Worst case for
  // speculation, still bit-identical.
  const KeyPair key = test_key(7);
  std::vector<Transaction> txs;
  for (std::uint64_t i = 0; i < 16; ++i) {
    txs.push_back(make_add_tx(key, i, "hot", 1));
  }
  twins.apply(std::move(txs));
  // Final counter value proves the adds serialized in tx order.
  ByteReader r{BytesView(*twins.parallel->state().get_ptr("kv/hot"))};
  EXPECT_EQ(r.u64().value_or(0), 16u);
}

TEST(ParallelEquivalenceTest, FailuresAtEveryStageMatchSerial) {
  ScopedThreads threads(4);
  TwinChains twins;
  std::vector<Transaction> txs;
  // Bad signature (fails sig check; nonce NOT consumed).
  Transaction bad_sig = make_set_tx(test_key(201), 0, "bs", "v");
  bad_sig.signature[0] ^= 0x01;
  txs.push_back(bad_sig);
  // Stale/future nonce (fails precondition; no writes).
  txs.push_back(make_set_tx(test_key(202), 5, "wn", "v"));
  // Contract failure (nonce consumed, contract writes rolled back).
  txs.push_back(make_method_tx(test_key(203), 0, "fail"));
  // Out of gas inside the contract.
  txs.push_back(make_method_tx(test_key(204), 0, "burn", [] {
    ByteWriter w;
    w.u64(50'000);
    return w.take();
  }(), /*gas_limit=*/10'000));
  // A success to prove normal flow coexists.
  txs.push_back(make_set_tx(test_key(205), 0, "ok", "v"));
  twins.apply(std::move(txs));

  const auto& receipts = twins.parallel->result_at(1).receipts;
  EXPECT_FALSE(receipts[0].success);
  EXPECT_FALSE(receipts[1].success);
  EXPECT_FALSE(receipts[2].success);
  EXPECT_FALSE(receipts[3].success);
  EXPECT_TRUE(receipts[4].success);
  // Bad-signature tx must not have advanced a nonce on either chain.
  EXPECT_EQ(twins.parallel->expected_nonce(bad_sig.sender()), 0u);
}

TEST(ParallelEquivalenceTest, TombstonesAndRewritesMatchSerial) {
  ScopedThreads threads(4);
  TwinChains twins;
  // Block 1 seeds keys; block 2 mixes deletes, rewrites, and dependent
  // reads of the deleted key across senders.
  std::vector<Transaction> seed;
  for (std::uint64_t i = 0; i < 8; ++i) {
    seed.push_back(
        make_set_tx(test_key(300 + i), 0, "t" + std::to_string(i % 4), "s"));
  }
  twins.apply(std::move(seed));

  std::vector<Transaction> mix;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::string key = "t" + std::to_string(i % 4);
    if (i % 3 == 0) {
      ByteWriter w;
      w.str(key);
      mix.push_back(make_method_tx(test_key(400 + i), 0, "del", w.take()));
    } else if (i % 3 == 1) {
      mix.push_back(make_add_tx(test_key(400 + i), 0, key, i));
    } else {
      mix.push_back(make_set_tx(test_key(400 + i), 0, key, "rewrite"));
    }
  }
  twins.apply(std::move(mix));
}

/// KvExecutor plus a gate that forces one interleaving: a lower tx's stale
/// run fails, so it publishes nothing on a key a higher tx reads. "open"
/// sets kv/gate, but when armed only after a "guarded_add" has read the
/// gate; "guarded_add" fails while the gate is closed and is otherwise an
/// "add". "open" waits once, with a bounded timeout, so re-runs and serial
/// execution never block on it.
class GateExecutor final : public TransactionExecutor {
 public:
  explicit GateExecutor(bool armed) : armed_(armed) {}

  Status execute(const Transaction& tx, OverlayState& state,
                 ExecContext& ctx) override {
    Transaction inner = tx;
    if (tx.method == "open") {
      wait_for_gate_read();
      inner.method = "set";
    } else if (tx.method == "guarded_add") {
      const bool open = state.get_ptr("kv/gate") != nullptr;
      {
        std::lock_guard lock(mu_);
        gate_read_ = true;
      }
      gate_read_cv_.notify_all();
      if (!open) return Status(ErrorCode::kFailedPrecondition, "gate closed");
      inner.method = "add";
    }
    return inner_.execute(inner, state, ctx);
  }

  /// True once an armed "open" saw the gate read before it wrote the gate.
  bool forced_interleaving() const {
    std::lock_guard lock(mu_);
    return forced_;
  }

 private:
  void wait_for_gate_read() {
    std::unique_lock lock(mu_);
    if (!armed_) return;
    armed_ = false;
    forced_ = gate_read_cv_.wait_for(lock, std::chrono::seconds(10),
                                     [&] { return gate_read_; });
  }

  KvExecutor inner_;
  mutable std::mutex mu_;
  std::condition_variable gate_read_cv_;
  bool armed_;
  bool gate_read_ = false;
  bool forced_ = false;
};

TEST(ParallelEquivalenceTest, PendingLowerWriterBlocksFinality) {
  ScopedThreads threads(4);  // a 4-tx block: one tx per pool chunk
  auto with_method = [](Transaction tx, const char* method,
                        const KeyPair& key) {
    tx.method = method;
    tx.sign_with(key);
    return tx;
  };
  // tx0 opens the gate only after tx1 has read it closed, so tx1's first
  // run fails and writes nothing to "hot". tx2 reads "hot" from pre-block
  // state — a version that still matches after wave 1 — yet it must not
  // finalize while tx1 is pending: tx1's re-run adds 5 to "hot".
  std::vector<Transaction> txs;
  txs.push_back(with_method(make_set_tx(test_key(800), 0, "gate", "open"),
                            "open", test_key(800)));
  txs.push_back(with_method(make_add_tx(test_key(801), 0, "hot", 5),
                            "guarded_add", test_key(801)));
  txs.push_back(make_add_tx(test_key(802), 0, "hot", 1));
  txs.push_back(make_set_tx(test_key(803), 0, "cold", "v"));

  GateExecutor serial_exec(/*armed=*/false), parallel_exec(/*armed=*/true);
  ChainConfig serial_config;
  serial_config.parallel_execution = false;
  Blockchain serial(serial_exec, serial_config);
  Blockchain parallel(parallel_exec);
  const Block block = serial.make_block(std::move(txs), 0, 1000);
  ASSERT_TRUE(serial.apply_block(block).ok());
  ASSERT_TRUE(parallel.apply_block(block).ok());
  EXPECT_TRUE(parallel_exec.forced_interleaving());
  expect_identical(serial, parallel);
  ByteReader r{BytesView(*parallel.state().get_ptr("kv/hot"))};
  EXPECT_EQ(r.u64().value_or(0), 6u);

  // tx1 and tx2 re-run once each. tx3's reads stayed valid while it waited
  // for the lower txs to finalize, so it was kept, not re-run.
  const ExecStats& s = parallel.exec_stats();
  EXPECT_EQ(s.parallel_blocks, 1u);
  EXPECT_EQ(s.speculated, 6u);
  EXPECT_EQ(s.waves, 3u);
  EXPECT_EQ(s.aborted, s.reexecuted);
}

// The satellite property test: 100 seeded random blocks swept across
// conflict densities — 0% (all-disjoint), 10%, 50% (hot-key RMW mixes),
// and adversarial same-key nonce chains — asserting parallel ≡ serial on
// every block (roots, receipts, events, gas; enforced, not sampled).
TEST(ParallelPropertyTest, HundredSeededBlocksAcrossConflictDensities) {
  ScopedThreads threads(4);
  const int kDensities[] = {0, 10, 50, 100};  // 100 = adversarial chain
  std::uint64_t next_key_seed = 10'000;
  for (const int density : kDensities) {
    TwinChains twins;
    for (int block = 0; block < 25; ++block) {
      std::mt19937_64 rng(0x5EED0000 + density * 1000 + block);
      std::vector<Transaction> txs;
      const std::size_t n = 8 + rng() % 17;  // 8..24 txs
      if (density == 100) {
        // Adversarial: one sender, one key, strict nonce chain, with a
        // contract failure thrown in (consumes nonce, rolls back writes).
        const KeyPair key = test_key(next_key_seed++);
        for (std::size_t i = 0; i < n; ++i) {
          if (i % 5 == 4) {
            txs.push_back(make_method_tx(key, i, "fail"));
          } else {
            txs.push_back(make_add_tx(key, i, "chain", 1));
          }
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          const KeyPair key = test_key(next_key_seed++);
          const bool conflicting =
              static_cast<int>(rng() % 100) < density;
          if (conflicting) {
            // RMW on a 4-key hot pool; occasionally delete instead.
            const std::string hot = "hot" + std::to_string(rng() % 4);
            if (rng() % 5 == 0) {
              ByteWriter w;
              w.str(hot);
              txs.push_back(make_method_tx(key, 0, "del", w.take()));
            } else {
              txs.push_back(make_add_tx(key, 0, hot, 1 + rng() % 9));
            }
          } else if (rng() % 11 == 0) {
            txs.push_back(make_method_tx(key, 0, "fail"));
          } else {
            txs.push_back(make_set_tx(
                key, 0, "d" + std::to_string(next_key_seed) , "v"));
          }
        }
      }
      twins.apply(std::move(txs));
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "divergence at density " << density << " block " << block;
      }
    }
    EXPECT_GT(twins.parallel->exec_stats().parallel_blocks, 0u);
  }
}

// ------------------------------------------------------------ ExecStats

TEST(ExecStatsTest, SerialFallbackAtWidthOne) {
  ScopedThreads threads(1);  // TNP_THREADS=1 equivalent
  KvExecutor exec;
  Blockchain chain(exec);  // parallel_execution defaults to true
  std::vector<Transaction> txs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    txs.push_back(make_set_tx(test_key(500 + i), 0, "k" + std::to_string(i), "v"));
  }
  ASSERT_TRUE(chain.apply_block(chain.make_block(std::move(txs), 0, 1)).ok());
  EXPECT_EQ(chain.exec_stats().serial_blocks, 1u);
  EXPECT_EQ(chain.exec_stats().parallel_blocks, 0u);
  EXPECT_EQ(chain.exec_stats().speculated, 0u);
}

TEST(ExecStatsTest, SmallBlocksStaySerial) {
  ScopedThreads threads(4);
  KvExecutor exec;
  Blockchain chain(exec);
  std::vector<Transaction> txs;
  txs.push_back(make_set_tx(test_key(600), 0, "k", "v"));  // < parallel_min_txs
  ASSERT_TRUE(chain.apply_block(chain.make_block(std::move(txs), 0, 1)).ok());
  EXPECT_EQ(chain.exec_stats().serial_blocks, 1u);
  EXPECT_EQ(chain.exec_stats().parallel_blocks, 0u);
}

TEST(ExecStatsTest, BookkeepingInvariants) {
  ScopedThreads threads(4);
  KvExecutor exec;
  Blockchain chain(exec);
  const KeyPair key = test_key(42);
  std::vector<Transaction> txs;
  for (std::uint64_t i = 0; i < 16; ++i) {
    txs.push_back(make_add_tx(key, i, "hot", 1));
  }
  ASSERT_TRUE(chain.apply_block(chain.make_block(std::move(txs), 0, 1)).ok());
  const ExecStats& s = chain.exec_stats();
  EXPECT_EQ(s.parallel_blocks, 1u);
  EXPECT_GE(s.speculated, 16u);
  EXPECT_EQ(s.reexecuted, s.speculated - 16u);  // first run per tx is free
  EXPECT_EQ(s.aborted, s.reexecuted);  // every abort re-executes exactly once
  EXPECT_GE(s.waves, 1u);
}

/// KvExecutor whose "add" stalls when the key is "slow" — forces the
/// racing interleaving deterministically enough to pin the abort path:
/// tx0 publishes its write only after later transactions (on other pool
/// threads) have speculatively read the key's pre-block version.
class StallingExecutor final : public TransactionExecutor {
 public:
  Status execute(const Transaction& tx, OverlayState& state,
                 ExecContext& ctx) override {
    if (tx.method == "stall") {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Transaction add = tx;
      add.method = "add";
      return inner_.execute(add, state, ctx);
    }
    return inner_.execute(tx, state, ctx);
  }

 private:
  KvExecutor inner_;
};

TEST(ExecStatsTest, ConflictingReadersAbortAndReexecute) {
  ScopedThreads threads(4);
  StallingExecutor exec;
  Blockchain chain(exec);
  std::vector<Transaction> txs;
  // tx0 stalls 50 ms before its RMW on "hot"; txs on other chunks read
  // "hot" long before tx0 publishes, so their base-version reads are
  // stale and validation must abort them at least once.
  Transaction slow = make_add_tx(test_key(700), 0, "hot", 1);
  slow.method = "stall";
  slow.sign_with(test_key(700));
  txs.push_back(slow);
  for (std::uint64_t i = 1; i < 8; ++i) {
    txs.push_back(make_add_tx(test_key(700 + i), 0, "hot", 1));
  }
  ASSERT_TRUE(chain.apply_block(chain.make_block(std::move(txs), 0, 1)).ok());
  const ExecStats& s = chain.exec_stats();
  EXPECT_GT(s.aborted, 0u);
  EXPECT_GT(s.reexecuted, 0u);
  EXPECT_GE(s.waves, 2u);
  // And the result is still the serial one: 8 increments.
  ByteReader r{BytesView(*chain.state().get_ptr("kv/hot"))};
  EXPECT_EQ(r.u64().value_or(0), 8u);
}

// ----------------------------------------- ExecStats survive recover()

std::unique_ptr<TransactionExecutor> kv_executor_factory() {
  return std::make_unique<KvExecutor>();
}

ledger::Transaction cluster_tx(std::uint64_t index) {
  const KeyPair key = test_key(0xAB0000 + index);
  return make_add_tx(key, 0, "cl" + std::to_string(index % 4), 1);
}

TEST(ClusterExecStatsTest, CountersSurviveRecover) {
  sim::Simulator simulator;
  net::Network network(simulator, 441);

  consensus::ClusterConfig config;
  config.protocol = consensus::Protocol::kPbft;
  config.replicas = 4;
  config.auth_mode = consensus::AuthMode::kMac;
  config.block_interval = 20 * sim::kMillisecond;
  config.view_timeout = 250 * sim::kMillisecond;
  config.seed = 440;
  std::vector<std::shared_ptr<storage::MemoryBackend>> disks;
  for (std::uint32_t i = 0; i < config.replicas; ++i) {
    disks.push_back(std::make_shared<storage::MemoryBackend>());
  }
  config.storage_factory = [&disks](std::size_t i) { return disks[i]; };
  config.store.group_commit = 1;
  config.store.snapshot_interval = 4;

  consensus::Cluster cluster(network, kv_executor_factory, config);
  fault::FaultInjector injector(network, cluster, 443);
  fault::FaultPlan plan;
  plan.crash(3 * sim::kSecond, 2).recover(6 * sim::kSecond, 2);
  injector.arm(plan);

  cluster.start();
  std::uint64_t submitted = 0;
  for (sim::SimTime t = 100 * sim::kMillisecond; t < 9 * sim::kSecond;
       t += 100 * sim::kMillisecond) {
    const std::uint64_t index = submitted++;
    simulator.schedule_at(
        t, [&cluster, index]() { cluster.submit(cluster_tx(index)); });
  }

  auto total_blocks = [](const ExecStats& s) {
    return s.serial_blocks + s.parallel_blocks;
  };

  // Probe just before the recover event and immediately after it (the
  // injector armed first, so at 6 s its recover runs before this probe).
  // recover() swaps replica 2's chain for one rebuilt from disk; without
  // the retired-stats accumulator the old chain's counters would vanish
  // and the cluster-wide total would drop.
  ExecStats before{}, after{};
  simulator.schedule_at(6 * sim::kSecond - 1, [&cluster, &before]() {
    before = cluster.exec_stats();
  });
  simulator.schedule_at(6 * sim::kSecond, [&cluster, &after]() {
    after = cluster.exec_stats();
  });
  simulator.run_until(10 * sim::kSecond);

  EXPECT_GT(total_blocks(before), 0u);
  EXPECT_GE(total_blocks(after), total_blocks(before));
  EXPECT_GE(after.speculated + after.serial_blocks,
            before.speculated + before.serial_blocks);
  // The final total keeps growing after recovery.
  EXPECT_GE(total_blocks(cluster.exec_stats()), total_blocks(after));
}

// --------------------------------------------------------- chaos sweep

/// Hot-key RMW workload (fresh sender per tx) so blocks carry genuine
/// read-write conflicts into the speculative engine under chaos.
ledger::Transaction exec_chaos_tx(std::uint64_t index) {
  const KeyPair key = test_key(0xEC0000 + index);
  return make_add_tx(key, 0, "hot" + std::to_string(index % 3), 1);
}

TEST(ExecChaosTest, SpeculativeExecutionSurvivesChaosSweep) {
  ScopedThreads threads(4);
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    fault::ChaosConfig config;
    config.cluster.protocol = consensus::Protocol::kPbft;
    config.cluster.replicas = 4;
    config.cluster.auth_mode = consensus::AuthMode::kMac;
    config.cluster.block_interval = 20 * sim::kMillisecond;
    config.cluster.view_timeout = 250 * sim::kMillisecond;
    config.cluster.seed = seed;
    config.run_until = 8 * sim::kSecond;
    config.tx_interval = 5 * sim::kMillisecond;  // ≥4-tx blocks
    config.seed = seed;

    fault::FaultPlan::RandomConfig rc;
    rc.replicas = config.cluster.replicas;
    rc.horizon = 6 * sim::kSecond;
    const fault::FaultPlan plan = fault::FaultPlan::random(rc, seed);

    const fault::ChaosResult speculative =
        fault::run_chaos(config, plan, kv_executor_factory, exec_chaos_tx);
    EXPECT_TRUE(speculative.ok())
        << "seed " << seed << ": " << speculative.report.to_string();

    // Serial twin: identical run with speculation disabled. Committed
    // artifacts are bit-identical, so the fingerprints must collide.
    fault::ChaosConfig serial_config = config;
    serial_config.cluster.chain.parallel_execution = false;
    const fault::ChaosResult serial = fault::run_chaos(
        serial_config, plan, kv_executor_factory, exec_chaos_tx);
    EXPECT_TRUE(serial.ok());
    EXPECT_EQ(speculative.fingerprint(), serial.fingerprint())
        << "seed " << seed;
    EXPECT_GT(speculative.committed_blocks, 0u);
  }
}

}  // namespace
}  // namespace tnp::ledger
