#include "ledger/chain.hpp"

#include <algorithm>
#include <numeric>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "crypto/schnorr.hpp"
#include "obs/trace.hpp"

namespace tnp::ledger {

namespace {

/// Nonce wire format shared by the serial and speculative read paths.
std::uint64_t decode_nonce(const Bytes* raw) {
  if (raw == nullptr) return 0;
  ByteReader r{BytesView(*raw)};
  return r.u64().value_or(0);
}

/// Verifies the signatures of txs[begin, end), writing per-index verdicts.
/// Schnorr transactions in the range are checked with one algebraic batch
/// verification; if the batch rejects (or a key/signature fails to parse),
/// the affected transactions fall back to individual verification, so the
/// verdict vector is identical to a per-signature scan. `skip[i]` marks
/// transactions already known valid (verified-signature cache hits).
void verify_tx_range(const std::vector<Transaction>& txs, std::size_t begin,
                     std::size_t end, const std::vector<unsigned char>& skip,
                     std::vector<unsigned char>& verdicts) {
  std::vector<std::size_t> batch_index;
  std::vector<schnorr::PublicKey> keys;
  std::vector<Bytes> preimages;
  std::vector<schnorr::Signature> sigs;
  for (std::size_t i = begin; i < end; ++i) {
    if (skip[i]) {
      verdicts[i] = 1;
      continue;
    }
    const Transaction& tx = txs[i];
    if (tx.scheme != SigScheme::kSchnorr) {
      verdicts[i] = tx.verify_signature() ? 1 : 0;
      continue;
    }
    auto key = schnorr::PublicKey::deserialize(BytesView(tx.sender_material));
    auto sig = schnorr::Signature::deserialize(BytesView(tx.signature));
    if (!key.ok() || !sig.ok()) {
      verdicts[i] = 0;
      continue;
    }
    batch_index.push_back(i);
    keys.push_back(std::move(*key));
    preimages.push_back(tx.encode(false));
    sigs.push_back(std::move(*sig));
  }
  if (batch_index.empty()) return;
  std::vector<BytesView> messages;
  messages.reserve(preimages.size());
  for (const Bytes& m : preimages) messages.emplace_back(m);
  if (schnorr::batch_verify(keys, messages, sigs)) {
    for (const std::size_t i : batch_index) verdicts[i] = 1;
    return;
  }
  // Batch rejected: at least one bad signature. Re-verify individually so
  // every index gets its exact serial verdict.
  for (std::size_t j = 0; j < batch_index.size(); ++j) {
    verdicts[batch_index[j]] =
        schnorr::verify(keys[j], messages[j], sigs[j]) ? 1 : 0;
  }
}

}  // namespace

Blockchain::Blockchain(TransactionExecutor& executor, ChainConfig config)
    : executor_(executor),
      config_(config),
      sig_cache_(config.sig_cache_capacity) {
  // Genesis: empty block at height 0 committing to the empty state.
  Block genesis;
  genesis.header.height = 0;
  genesis.header.state_root = state_.root();
  genesis.header.tx_root = genesis.compute_tx_root();
  blocks_.push_back(std::move(genesis));
  results_.emplace_back();
}

std::string Blockchain::nonce_key(const AccountId& account) {
  return "sys/nonce/" + account.hex();
}

std::uint64_t Blockchain::expected_nonce(const AccountId& account) const {
  return decode_nonce(state_.get_ptr(nonce_key(account)));
}

Status Blockchain::precheck(const Transaction& tx) const {
  if (config_.verify_signatures) {
    const Hash256 id = tx.id();
    if (!sig_cache_.contains(id)) {
      if (!tx.verify_signature()) {
        return Status(ErrorCode::kUnauthenticated, "bad transaction signature");
      }
      // Remember the admission-time verdict so block commit skips the EC
      // math for this exact signed payload.
      sig_cache_.insert(id);
    }
  }
  if (tx.nonce < expected_nonce(tx.sender())) {
    return Status(ErrorCode::kFailedPrecondition, "stale nonce");
  }
  return Status::Ok();
}

Block Blockchain::make_block(std::vector<Transaction> txs,
                             std::uint32_t proposer,
                             sim::SimTime timestamp) const {
  Block block;
  block.header.height = height() + 1;
  block.header.parent = tip_hash();
  block.header.state_root = state_.root();  // pre-state convention
  block.header.timestamp = timestamp;
  block.header.proposer = proposer;
  block.txs = std::move(txs);
  block.header.tx_root = block.compute_tx_root();
  return block;
}

Status Blockchain::validate_header(const Block& block) const {
  if (block.header.height != height() + 1) {
    return Status(ErrorCode::kFailedPrecondition, "wrong block height");
  }
  if (block.header.parent != tip_hash()) {
    return Status(ErrorCode::kFailedPrecondition, "parent hash mismatch");
  }
  if (block.header.tx_root != block.compute_tx_root()) {
    return Status(ErrorCode::kCorruptData, "tx root mismatch");
  }
  if (block.header.state_root != state_.root()) {
    return Status(ErrorCode::kCorruptData,
                  "pre-state root mismatch (replica divergence)");
  }
  return Status::Ok();
}

std::vector<unsigned char> Blockchain::verify_signatures_parallel(
    const Block& block) const {
  std::vector<unsigned char> verdicts;
  if (!config_.verify_signatures) return verdicts;
  const std::size_t n = block.txs.size();
  verdicts.resize(n);
  // Serial pre-pass: memoized ids + cache lookups, so the parallel phase
  // touches neither the id cache nor the sig-cache mutex.
  std::vector<unsigned char> cached(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    cached[i] = sig_cache_.contains(block.txs[i].id()) ? 1 : 0;
  }
  // Each pool thread takes a contiguous sub-batch and verifies its Schnorr
  // signatures with one multi-scalar multiplication — the thread-level and
  // algebraic batching multiply. 4 is a low floor because a single Schnorr
  // verify already dwarfs the dispatch cost.
  global_pool().for_chunks(
      n, /*min_per_chunk=*/4, [&](std::size_t begin, std::size_t end) {
        verify_tx_range(block.txs, begin, end, cached, verdicts);
      });
  for (std::size_t i = 0; i < n; ++i) {
    if (!cached[i] && verdicts[i]) sig_cache_.insert(block.txs[i].id());
  }
  return verdicts;
}

Status Blockchain::validate_block(const Block& block) const {
  if (auto s = validate_header(block); !s.ok()) return s;
  const auto verdicts = verify_signatures_parallel(block);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (!verdicts[i]) {
      return Status(ErrorCode::kUnauthenticated,
                    "bad signature on tx " + std::to_string(i));
    }
  }
  return Status::Ok();
}

Receipt Blockchain::execute_tx(const Transaction& tx,
                               std::vector<Event>& events,
                               const unsigned char* sig_verdict,
                               std::vector<StateWrite>* write_log) {
  Receipt receipt;
  receipt.tx_id = tx.id();
  GasMeter gas(tx.gas_limit);

  auto fail = [&](const Status& status) {
    receipt.success = false;
    receipt.error = status.error().to_string();
    receipt.gas_used = gas.used();
    return receipt;
  };

  if (auto s = gas.charge(config_.gas_costs.base_tx); !s.ok()) return fail(s);

  const AccountId sender = tx.sender();
  if (config_.verify_signatures) {
    if (auto s = gas.charge(config_.gas_costs.sig_verify); !s.ok()) {
      return fail(s);
    }
    const bool sig_ok = sig_verdict ? *sig_verdict != 0 : tx.verify_signature();
    if (!sig_ok) {
      return fail(Status(ErrorCode::kUnauthenticated, "bad signature"));
    }
  }

  const std::uint64_t expected = expected_nonce(sender);
  if (tx.nonce != expected) {
    return fail(Status(ErrorCode::kFailedPrecondition,
                       "nonce " + std::to_string(tx.nonce) + " != expected " +
                           std::to_string(expected)));
  }
  // Nonce advances regardless of execution outcome (replay protection).
  {
    ByteWriter w;
    w.u64(expected + 1);
    Bytes encoded = w.take();
    if (write_log) write_log->emplace_back(nonce_key(sender), encoded);
    state_.set(nonce_key(sender), std::move(encoded));
  }

  OverlayState overlay(state_);
  std::vector<Event> tx_events;
  ExecContext ctx{
      .block_height = height() + 1,
      .block_time = 0,  // filled by apply_block
      .sender = sender,
      .tx_id = receipt.tx_id,
      .gas = &gas,
      .events = &tx_events,
      .costs = &config_.gas_costs,
  };
  ctx.block_time = pending_block_time_;

  const Status status = executor_.execute(tx, overlay, ctx);
  receipt.gas_used = gas.used();
  if (status.ok()) {
    if (write_log) {
      // Manual application in the WriteSet's sorted order — exactly what
      // commit() does — with each op mirrored into the log.
      for (auto& [key, value] : overlay.take_writes()) {
        if (value.has_value()) {
          write_log->emplace_back(key, *value);
          state_.set(key, std::move(*value));
        } else {
          write_log->emplace_back(key, std::nullopt);
          state_.erase(key);
        }
      }
    } else {
      overlay.commit();
    }
    receipt.success = true;
    for (auto& ev : tx_events) events.push_back(std::move(ev));
  } else {
    overlay.rollback();
    receipt.success = false;
    receipt.error = status.error().to_string();
  }
  return receipt;
}

Blockchain::SpecResult Blockchain::speculate_tx(
    const Block& block, std::size_t index, const MultiVersionState& mv,
    const unsigned char* sig_verdict) const {
  const Transaction& tx = block.txs[index];
  SpecResult out;
  Receipt& receipt = out.receipt;
  receipt.tx_id = tx.id();
  GasMeter gas(tx.gas_limit);

  // All reads flow through the instrumented view (recording versions for
  // validation); all writes buffer in the outer overlay until harvested.
  SpeculativeStateView view(mv, index);
  OverlayState tx_state(static_cast<const StateReader&>(view));

  auto fail = [&](const Status& status) {
    receipt.success = false;
    receipt.error = status.error().to_string();
    receipt.gas_used = gas.used();
  };

  // Mirrors execute_tx decision-for-decision; any divergence here breaks
  // the bit-identical guarantee the equivalence tests enforce.
  [&] {
    if (auto s = gas.charge(config_.gas_costs.base_tx); !s.ok()) {
      return fail(s);
    }
    const AccountId sender = tx.sender();
    if (config_.verify_signatures) {
      if (auto s = gas.charge(config_.gas_costs.sig_verify); !s.ok()) {
        return fail(s);
      }
      const bool sig_ok =
          sig_verdict ? *sig_verdict != 0 : tx.verify_signature();
      if (!sig_ok) {
        return fail(Status(ErrorCode::kUnauthenticated, "bad signature"));
      }
    }

    const std::uint64_t expected =
        decode_nonce(tx_state.get_ptr(nonce_key(sender)));
    if (tx.nonce != expected) {
      return fail(Status(ErrorCode::kFailedPrecondition,
                         "nonce " + std::to_string(tx.nonce) + " != expected " +
                             std::to_string(expected)));
    }
    // Nonce advances regardless of execution outcome (replay protection):
    // written to the outer overlay, so it survives a contract rollback —
    // the speculative analogue of the serial path's direct state_ write.
    {
      ByteWriter w;
      w.u64(expected + 1);
      tx_state.set(nonce_key(sender), w.take());
    }

    OverlayState scratch(tx_state);
    std::vector<Event> tx_events;
    ExecContext ctx{
        .block_height = height() + 1,
        .block_time = block.header.timestamp,
        .sender = sender,
        .tx_id = receipt.tx_id,
        .gas = &gas,
        .events = &tx_events,
        .costs = &config_.gas_costs,
    };
    const Status status = executor_.execute(tx, scratch, ctx);
    receipt.gas_used = gas.used();
    if (status.ok()) {
      scratch.commit();  // flushes into tx_state
      receipt.success = true;
      out.events = std::move(tx_events);
    } else {
      scratch.rollback();
      receipt.success = false;
      receipt.error = status.error().to_string();
    }
  }();

  out.writes = tx_state.take_writes();
  out.reads = view.take_reads();  // kept even on failure: a failed tx's
                                  // decision may rest on stale reads
  return out;
}

void Blockchain::apply_txs_parallel(
    const Block& block, const std::vector<unsigned char>& sig_verdicts,
    BlockResult& result, std::vector<StateWrite>* write_log) {
  const std::size_t n = block.txs.size();
  MultiVersionState mv(state_, n);
  std::vector<SpecResult> rec(n);
  std::vector<unsigned char> final_tx(n, 0);  // validated; never re-runs
  std::vector<std::size_t> wave(n);
  std::iota(wave.begin(), wave.end(), std::size_t{0});

  std::uint64_t speculated = 0, waves = 0, aborted = 0;
  while (!wave.empty()) {
    ++waves;
    speculated += wave.size();
    parallel_for_indices(wave, [&](std::size_t i) {
      SpecResult r = speculate_tx(
          block, i, mv, sig_verdicts.empty() ? nullptr : &sig_verdicts[i]);
      mv.publish(i, r.writes);
      rec[i] = std::move(r);
    });
    // In-order validation with prefix finality: tx i is final once every
    // read still resolves to the version it observed AND every lower tx is
    // already final. A matching version proves nothing while a lower tx is
    // pending — its re-run may write a key i read (say, after a stale run
    // that failed and so published nothing there). Past the first invalid
    // tx, txs whose reads still match stay pending without re-running and
    // are validated again after the next wave; only invalid ones re-run.
    // The lowest pending tx reads only final writers, so it always
    // finalizes and the loop runs at most n waves.
    std::vector<std::size_t> next;
    bool prefix_final = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (final_tx[i]) continue;
      const bool valid = std::all_of(
          rec[i].reads.begin(), rec[i].reads.end(), [&](const auto& read) {
            return mv.current_version(read.first, i) == read.second.version;
          });
      if (!valid) {
        next.push_back(i);
        prefix_final = false;
      } else if (prefix_final) {
        final_tx[i] = 1;
      }
    }
    aborted += next.size();
    wave = std::move(next);
  }
  ++exec_stats_.parallel_blocks;
  exec_stats_.waves += waves;
  exec_stats_.speculated += speculated;
  exec_stats_.aborted += aborted;
  exec_stats_.reexecuted += speculated - n;
  // Recorded from this serial coordinator, never from workers: one wave
  // summary (and one abort summary, aborted == reexecuted by construction)
  // per parallel block.
  if (config_.trace) {
    config_.trace->record(obs::TraceEventType::kSpecWave,
                          config_.trace_replica, block.header.height, 0, waves,
                          speculated);
    if (aborted > 0) {
      config_.trace->record(obs::TraceEventType::kSpecAbort,
                            config_.trace_replica, block.header.height, 0,
                            aborted, speculated - n);
    }
  }

  // Serial commit in tx order: the exact writes the serial loop would
  // make, applied in the same order — state root, receipts, events, and
  // gas totals are bit-identical to serial execution.
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& [key, value] : rec[i].writes) {
      if (write_log) write_log->emplace_back(key, value);
      if (value.has_value()) {
        state_.set(key, std::move(*value));
      } else {
        state_.erase(key);
      }
    }
    Receipt& receipt = rec[i].receipt;
    total_gas_used_ += receipt.gas_used;
    if (!receipt.success) {
      log_debug("tx ", receipt.tx_id.short_hex(), " failed: ", receipt.error);
    }
    for (auto& ev : rec[i].events) result.events.push_back(std::move(ev));
    result.receipts.push_back(std::move(receipt));
  }
}

ChainCheckpoint Blockchain::checkpoint() const {
  ChainCheckpoint cp;
  cp.height = height();
  cp.tip_hash = tip_hash();
  cp.state = state_;
  cp.total_gas_used = total_gas_used_;
  cp.tx_count = tx_count_;
  cp.results = results_;
  return cp;
}

Expected<std::uint64_t> Blockchain::restore(const std::vector<Block>& blocks,
                                            const ChainCheckpoint* cp) {
  if (height() != 0 || total_gas_used_ != 0 || tx_count_ != 0) {
    return Error(ErrorCode::kFailedPrecondition,
                 "restore requires a fresh chain");
  }
  // Pass 1: structural verification, truncating at the first bad link.
  // Header hashes chain each block to its parent; recomputing the tx root
  // additionally binds the transaction *bodies*, which the header chain
  // alone does not cover (a flipped tx byte leaves every header intact).
  std::uint64_t valid = 0;
  Hash256 prev = blocks_.front().hash();  // genesis
  for (const Block& b : blocks) {
    if (b.header.height != valid + 1) break;
    if (b.header.parent != prev) break;
    if (b.header.tx_root != b.compute_tx_root()) break;
    prev = b.hash();
    ++valid;
  }

  std::uint64_t start = 0;  // first height to re-execute is start + 1
  if (cp && cp->height > 0) {
    if (cp->height > valid) {
      return Error(ErrorCode::kFailedPrecondition,
                   "checkpoint height beyond verifiable blocks");
    }
    if (blocks[cp->height - 1].hash() != cp->tip_hash) {
      return Error(ErrorCode::kCorruptData, "checkpoint tip-hash mismatch");
    }
    if (cp->results.size() != cp->height + 1) {
      return Error(ErrorCode::kCorruptData,
                   "checkpoint results/height mismatch");
    }
    state_ = cp->state;
    total_gas_used_ = cp->total_gas_used;
    tx_count_ = cp->tx_count;
    results_ = cp->results;
    blocks_.insert(blocks_.end(), blocks.begin(),
                   blocks.begin() + static_cast<std::ptrdiff_t>(cp->height));
    start = cp->height;
  }
  for (std::uint64_t h = start; h < valid; ++h) {
    if (!apply_block(blocks[h]).ok()) break;  // keep the verified prefix
  }
  return height();
}

Status Blockchain::apply_block(const Block& block) {
  if (auto s = validate_header(block); !s.ok()) return s;

  // Phase 1 (parallel): verify every signature up front. Phase 2 (serial):
  // apply transactions in order, consuming the per-index verdicts — gas
  // accounting and receipt contents match the serial path exactly.
  const auto sig_verdicts = verify_signatures_parallel(block);

  BlockResult result;
  result.receipts.reserve(block.txs.size());
  pending_block_time_ = block.header.timestamp;
  // Committed-write collection only runs for subscribed chains; the write
  // stream feeds delta-maintained derived views (news analytics, factdb
  // mirror) so they never re-scan world state.
  std::vector<StateWrite> writes;
  std::vector<StateWrite>* write_log =
      commit_hooks_.empty() ? nullptr : &writes;
  const bool speculative = config_.parallel_execution &&
                           block.txs.size() >= config_.parallel_min_txs &&
                           global_pool().width() > 1;
  if (speculative) {
    apply_txs_parallel(block, sig_verdicts, result, write_log);
  } else {
    ++exec_stats_.serial_blocks;
    for (std::size_t i = 0; i < block.txs.size(); ++i) {
      const auto& tx = block.txs[i];
      Receipt receipt = execute_tx(
          tx, result.events, sig_verdicts.empty() ? nullptr : &sig_verdicts[i],
          write_log);
      total_gas_used_ += receipt.gas_used;
      if (!receipt.success) {
        log_debug("tx ", receipt.tx_id.short_hex(), " failed: ", receipt.error);
      }
      result.receipts.push_back(std::move(receipt));
    }
  }
  tx_count_ += block.txs.size();
  blocks_.push_back(block);
  results_.push_back(std::move(result));
  if (!commit_hooks_.empty()) {
    const CommittedBlockInfo info{blocks_.back(), results_.back(), writes};
    for (const auto& hook : commit_hooks_) hook(info);
  }
  return Status::Ok();
}

}  // namespace tnp::ledger
