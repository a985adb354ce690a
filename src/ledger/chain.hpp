// The blockchain: ordered, validated blocks applied to world state.
//
// Follows the execute-after-order model (as PBFT/Tendermint do): consensus
// fixes the transaction order first, execution happens at apply time, and a
// header's state_root commits to the state *after the parent block* — so
// replicas detect divergence one block later without executing before
// voting.
//
// Failed transactions consume their nonce and gas but leave no state
// effects (per-transaction overlay rollback).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ledger/block.hpp"
#include "ledger/gas.hpp"
#include "ledger/state.hpp"

namespace tnp::obs {
class TraceRecorder;
}

namespace tnp::ledger {

/// Event emitted by contract execution; recorded in the receipt so
/// off-chain components (newsroom UIs, monitors) can react.
struct Event {
  std::string name;
  Bytes data;
};

/// Context handed to contract execution.
struct ExecContext {
  std::uint64_t block_height = 0;
  sim::SimTime block_time = 0;
  AccountId sender{};
  Hash256 tx_id{};
  GasMeter* gas = nullptr;
  std::vector<Event>* events = nullptr;
  const GasCosts* costs = nullptr;

  Status charge(std::uint64_t amount) const { return gas->charge(amount); }
  void emit(std::string name, Bytes data) const {
    if (events) events->push_back(Event{std::move(name), std::move(data)});
  }
};

/// Pluggable execution engine (implemented by contracts::ContractHost).
class TransactionExecutor {
 public:
  virtual ~TransactionExecutor() = default;
  virtual Status execute(const Transaction& tx, OverlayState& state,
                         ExecContext& ctx) = 0;
};

struct BlockResult {
  std::vector<Receipt> receipts;
  std::vector<Event> events;  // all events, in tx order
};

/// One committed state mutation: key plus the new value (nullopt = erase).
using StateWrite = std::pair<std::string, std::optional<Bytes>>;

/// Payload handed to commit hooks after a block is fully applied. `writes`
/// lists every state mutation the block made (nonce bumps included), in
/// application order — exactly what a subscriber needs to delta-maintain a
/// derived view without re-scanning world state. Borrowed references: valid
/// only for the duration of the hook call.
struct CommittedBlockInfo {
  const Block& block;
  const BlockResult& result;
  const std::vector<StateWrite>& writes;
};

/// Counters from the execution engine, cumulative across applied blocks.
/// Observability only — never part of committed state, receipts, or chaos
/// fingerprints: abort/re-execution counts depend on thread scheduling and
/// are not deterministic run to run (unlike every committed artifact,
/// which is bit-identical to serial execution by construction).
struct ExecStats {
  std::uint64_t serial_blocks = 0;    // blocks run on the serial baseline path
  std::uint64_t parallel_blocks = 0;  // blocks run through the speculative engine
  std::uint64_t speculated = 0;       // speculative tx executions (incl. re-runs)
  std::uint64_t aborted = 0;          // txs sent back to a wave by a failed
                                      // read-set check (txs kept pending
                                      // for re-validation do not count)
  std::uint64_t reexecuted = 0;       // executions beyond the first, per tx
  std::uint64_t waves = 0;            // scheduling waves across parallel blocks

  ExecStats& operator+=(const ExecStats& o) {
    serial_blocks += o.serial_blocks;
    parallel_blocks += o.parallel_blocks;
    speculated += o.speculated;
    aborted += o.aborted;
    reexecuted += o.reexecuted;
    waves += o.waves;
    return *this;
  }
};

/// Everything derived state a chain holds at a height: the inputs to
/// Blockchain::restore() and the payload of a storage-layer snapshot. A
/// checkpoint is *derived* data — blocks re-executed from genesis produce
/// an identical one — so persisting it is purely a recovery-time
/// optimization, never a source of truth.
struct ChainCheckpoint {
  std::uint64_t height = 0;
  Hash256 tip_hash{};             // hash of the block at `height`
  WorldState state;               // world state after block `height`
  std::uint64_t total_gas_used = 0;
  std::uint64_t tx_count = 0;
  std::vector<BlockResult> results;  // results[h] for h in [0, height]
};

struct ChainConfig {
  GasCosts gas_costs{};
  bool verify_signatures = true;  // disable to isolate consensus cost (E8)
  /// Bound on the verified-signature cache (0 disables it). Transactions
  /// whose signatures already checked out at mempool admission (precheck)
  /// are not re-verified at block commit.
  std::size_t sig_cache_capacity = 1 << 16;
  /// Optimistic parallel execution (Block-STM family): execute block
  /// transactions speculatively on the global thread pool against a
  /// multi-version overlay, validate read sets in transaction order,
  /// re-execute conflicters, then commit serially in block order. Results
  /// — state root, receipts, events, gas — are bit-identical to the serial
  /// path, which remains the fallback when the pool width is 1
  /// (TNP_THREADS=1) or the block is below parallel_min_txs.
  bool parallel_execution = true;
  /// Smallest block worth speculating on; below this the serial loop wins.
  std::size_t parallel_min_txs = 4;
  /// Optional structured-event sink (src/obs; not owned, must outlive the
  /// chain). The parallel engine records per-block speculation wave/abort
  /// events tagged with `trace_replica`. Diagnostic lane: like ExecStats,
  /// the operands depend on thread scheduling and are excluded from trace
  /// fingerprints.
  obs::TraceRecorder* trace = nullptr;
  std::uint32_t trace_replica = 0;
};

/// Bounded FIFO set of transaction ids whose signatures have verified.
/// Thread-safe; the ledger consults it serially around the parallel verify
/// phase, the mutex only guards against concurrent prechecks.
class VerifiedSigCache {
 public:
  explicit VerifiedSigCache(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool contains(const Hash256& id) const {
    std::lock_guard lock(mu_);
    return set_.contains(id);
  }
  void insert(const Hash256& id) {
    if (capacity_ == 0) return;
    std::lock_guard lock(mu_);
    if (!set_.insert(id).second) return;
    order_.push_back(id);
    while (order_.size() > capacity_) {
      set_.erase(order_.front());
      order_.pop_front();
    }
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return set_.size();
  }

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::unordered_set<Hash256> set_;
  std::deque<Hash256> order_;
};

class Blockchain {
 public:
  Blockchain(TransactionExecutor& executor, ChainConfig config = {});

  /// State key holding an account's next nonce.
  static std::string nonce_key(const AccountId& account);

  /// Next expected nonce for `account` (0 if never seen).
  [[nodiscard]] std::uint64_t expected_nonce(const AccountId& account) const;

  /// Stateless-ish precheck used by the mempool: signature + nonce >=
  /// expected (future nonces are allowed to queue).
  [[nodiscard]] Status precheck(const Transaction& tx) const;

  /// Builds a candidate block on the current tip. Does not execute.
  [[nodiscard]] Block make_block(std::vector<Transaction> txs,
                                 std::uint32_t proposer,
                                 sim::SimTime timestamp) const;

  /// Header-level validation of a candidate block against the current tip
  /// (no execution) — what a replica checks before voting.
  [[nodiscard]] Status check_candidate(const Block& block) const {
    return validate_header(block);
  }

  /// Full block validation without execution: the header checks plus a
  /// signature check of every transaction, verified in parallel on the
  /// global pool. Per-index verdicts are collected so the reported error
  /// names the lowest failing transaction index — identical to what a
  /// serial front-to-back scan would report.
  [[nodiscard]] Status validate_block(const Block& block) const;

  /// Full validation + execution + append. Transaction signatures are
  /// verified in parallel up front; the serial state-apply pass then
  /// consumes the per-index verdicts, so receipts (order, gas, error
  /// strings) are bit-identical to the all-serial path. On any
  /// header-level failure the chain is untouched. Individual failed
  /// transactions are recorded in their receipts.
  Status apply_block(const Block& block);

  [[nodiscard]] std::uint64_t height() const {
    return blocks_.empty() ? 0 : blocks_.back().header.height;
  }
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] Hash256 tip_hash() const {
    return blocks_.empty() ? Hash256{} : blocks_.back().hash();
  }
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }
  [[nodiscard]] const Block& block_at(std::uint64_t height) const {
    return blocks_.at(height);
  }
  [[nodiscard]] const BlockResult& result_at(std::uint64_t height) const {
    return results_.at(height);
  }

  [[nodiscard]] const WorldState& state() const { return state_; }
  /// Mutable access for genesis seeding only (before block 1 is applied).
  [[nodiscard]] WorldState& mutable_state_for_genesis() { return state_; }

  /// Snapshot of all derived state at the current height (storage layer).
  [[nodiscard]] ChainCheckpoint checkpoint() const;

  /// Rebuilds this chain from persisted blocks (heights 1..n, genesis
  /// excluded) and an optional checkpoint. Only callable on a fresh chain
  /// (height 0; genesis seeding may already have been applied).
  ///
  /// The blocks are first verified as a chain — sequential heights, parent
  /// hash links, recomputed tx roots — and silently truncated at the first
  /// violation (recovery's exact-prefix rule). With a checkpoint, state/
  /// results/counters are restored at cp.height (after cross-checking
  /// cp.tip_hash against the block at that height) and only later blocks
  /// are re-executed; without one, every block re-executes from genesis.
  /// Re-execution runs the full validate+apply path, so a block whose
  /// recorded pre-state root does not match the rebuilt state stops the
  /// restore there — the chain keeps the verified prefix.
  ///
  /// Returns the restored height. Errors (checkpoint beyond the verifiable
  /// blocks, tip-hash mismatch, malformed results vector, non-fresh chain)
  /// leave the chain untouched so the caller can retry without the
  /// checkpoint.
  Expected<std::uint64_t> restore(const std::vector<Block>& blocks,
                                  const ChainCheckpoint* cp = nullptr);

  /// Subscribes to block commits. Hooks run serially, in registration
  /// order, after the block's state effects are fully applied (including
  /// during restore()'s re-execution, so a subscriber rebuilt over a
  /// recovered chain replays the same stream). Write collection is gated on
  /// at least one hook being registered — hook-free chains pay nothing.
  /// Hooks must not call back into the chain.
  using CommitHook = std::function<void(const CommittedBlockInfo&)>;
  void add_commit_hook(CommitHook hook) {
    commit_hooks_.push_back(std::move(hook));
  }

  [[nodiscard]] std::uint64_t total_gas_used() const { return total_gas_used_; }
  [[nodiscard]] std::uint64_t tx_count() const { return tx_count_; }
  /// Number of transaction ids currently held by the verified-signature
  /// cache (observability / tests).
  [[nodiscard]] std::size_t sig_cache_size() const { return sig_cache_.size(); }
  /// Execution-engine counters (cumulative; see ExecStats for caveats).
  [[nodiscard]] const ExecStats& exec_stats() const { return exec_stats_; }

 private:
  Status validate_header(const Block& block) const;
  /// Verifies all tx signatures on the global pool. Each thread gets a
  /// contiguous sub-batch; Schnorr signatures inside a sub-batch are
  /// checked with one algebraic batch verification (falling back to
  /// per-signature checks when the batch rejects, so verdicts — and the
  /// lowest-failing-index error — match the serial path exactly).
  /// Transactions whose ids are in the verified-signature cache skip
  /// re-verification. Returns one verdict per transaction (empty when
  /// signature checking is disabled).
  std::vector<unsigned char> verify_signatures_parallel(
      const Block& block) const;
  /// `sig_verdict` is the pre-computed signature check for this tx, or
  /// nullptr to verify inline (serial path). When `write_log` is non-null
  /// every state mutation (nonce bump + committed overlay writes, in the
  /// overlay's sorted order — the order commit() applies them) is appended.
  Receipt execute_tx(const Transaction& tx, std::vector<Event>& events,
                     const unsigned char* sig_verdict = nullptr,
                     std::vector<StateWrite>* write_log = nullptr);

  /// One transaction's speculative execution artifacts, harvested for
  /// validation and (if it survives) the serial commit pass.
  struct SpecResult {
    OverlayState::WriteSet writes;
    SpeculativeStateView::ReadSet reads;
    Receipt receipt;
    std::vector<Event> events;
  };
  /// Executes block.txs[index] against the multi-version overlay, reads
  /// instrumented through a SpeculativeStateView. Mirrors execute_tx
  /// decision-for-decision (gas charges, nonce handling, rollback) so a
  /// validated result is bit-identical to what the serial path produces.
  SpecResult speculate_tx(const Block& block, std::size_t index,
                          const MultiVersionState& mv,
                          const unsigned char* sig_verdict) const;
  /// The optimistic engine: wave-parallel speculation, in-order read-set
  /// validation, abort/re-execute, then a serial commit in tx order.
  /// `write_log`, when non-null, receives every committed write from the
  /// serial commit pass (nonce writes ride in the speculative write sets).
  void apply_txs_parallel(const Block& block,
                          const std::vector<unsigned char>& sig_verdicts,
                          BlockResult& result,
                          std::vector<StateWrite>* write_log);

  TransactionExecutor& executor_;
  ChainConfig config_;
  /// Ids of transactions whose signatures verified (at precheck or in a
  /// previous block validation) — performance-only: hits skip the EC math
  /// but verdicts are identical since only valid signatures are inserted.
  mutable VerifiedSigCache sig_cache_;
  WorldState state_;
  std::vector<Block> blocks_;        // blocks_[0] is genesis
  std::vector<BlockResult> results_; // parallel to blocks_
  std::uint64_t total_gas_used_ = 0;
  std::uint64_t tx_count_ = 0;
  ExecStats exec_stats_;
  sim::SimTime pending_block_time_ = 0;  // timestamp of the block being applied
  std::vector<CommitHook> commit_hooks_;
};

}  // namespace tnp::ledger
