#include "serve/spmd_engine.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/dchag_frontend.hpp"
#include "train/checkpoint.hpp"

namespace dchag::serve {

namespace {

std::string shard_path(const std::string& dir, int world_rank) {
  return dir + "/rank_" + std::to_string(world_rank) + ".ckpt";
}

std::vector<int> full_membership(int ranks) {
  std::vector<int> full(static_cast<std::size_t>(ranks));
  std::iota(full.begin(), full.end(), 0);
  return full;
}

}  // namespace

SpmdEngine::SpmdEngine(int ranks, RankModelFactory factory,
                       SpmdEngineConfig cfg, const runtime::Context& ctx)
    // Capture the submitter's EFFECTIVE context: scopes active on the
    // constructing thread fold in here and reach every rank thread.
    : ranks_(ranks),
      ctx_(ctx.effective()),
      factory_(std::move(factory)),
      metrics_(std::move(cfg.metrics)),
      checkpoint_dir_(std::move(cfg.checkpoint_dir)) {
  DCHAG_CHECK(ranks_ >= 1, "SpmdEngine needs >= 1 rank");
  DCHAG_CHECK(factory_ != nullptr, "SpmdEngine needs a model factory");
  serving_members_ = full_membership(ranks_);
  world_thread_ = std::thread([this] {
    try {
      comm::World world(ranks_);
      if (ctx_.fault_plan()) world.set_fault_plan(ctx_.fault_plan());
      world.run([&](comm::Communicator& comm) {
        // Rank threads run under the engine's context: the factory's
        // front-ends inherit its kernel/comm policy unless they pin
        // their own. A typical SPMD deployment pins kBlocked on the
        // engine context so P concurrent ranks don't contend for the
        // shared ThreadPool (they ARE the parallelism).
        runtime::Scope ctx_scope(ctx_);
        // Tape-free for the lifetime of this rank thread: serving never
        // records autograd history.
        autograd::NoGradGuard no_grad;
        std::unique_ptr<model::ForecastModel> model;
        try {
          model = factory_(comm);
          DCHAG_CHECK(model != nullptr, "rank model factory returned null");
          // Serving plan: eval + pre-packed GEMM panels + fused epilogues
          // (bit-identical forward; see tensor/plan.hpp).
          model->freeze_for_serving();
          // Cold-start shard: what a respawned rank reloads after a
          // death. Written before ready so a heal never races the save.
          if (!checkpoint_dir_.empty())
            train::save_module(shard_path(checkpoint_dir_, comm.rank()),
                               *model);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++failed_ranks_;
          }
          cv_done_.notify_all();
          throw;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++ready_ranks_;
        }
        cv_done_.notify_all();
        // Construction barrier: if any rank's factory threw, the others
        // must exit too — otherwise they would wait for jobs forever and
        // World::run could never join.
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_done_.wait(lock, [&] {
            return ready_ranks_ + failed_ranks_ >= ranks_;
          });
          if (failed_ranks_ > 0) return;
        }
        // Rank-private arena: this thread runs every forward it serves,
        // so steady-state requests reuse the warm-up buffers.
        tensor::plan::Arena arena;
        tensor::plan::ArenaScope arena_scope(arena);
        serve_loop(&comm, model.get(), /*min_stamp=*/0);
      });
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        failure_ = std::current_exception();
        stop_ = true;
        ready_ranks_ = ranks_;  // unblock the constructor's wait
      }
      cv_done_.notify_all();
      cv_job_.notify_all();
    }
  });

  std::unique_lock<std::mutex> lock(mu_);
  // Either every rank reports ready, or the world thread dies (its catch
  // block sets failure_ and forces ready_ranks_ up to unblock us).
  cv_done_.wait(lock, [&] { return ready_ranks_ >= ranks_; });
  if (failure_) {
    lock.unlock();
    stop_and_join();
    std::rethrow_exception(failure_);
  }
}

SpmdEngine::~SpmdEngine() { stop_and_join(); }

void SpmdEngine::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_job_.notify_all();
  cv_done_.notify_all();
  if (world_thread_.joinable()) world_thread_.join();
  // Respawned rank threads are engine-owned, not World-owned. Drain in a
  // loop: a recovery racing the shutdown may append one more batch.
  for (;;) {
    std::vector<std::thread> drained;
    {
      std::lock_guard<std::mutex> lock(mu_);
      drained.swap(respawn_threads_);
    }
    if (drained.empty()) break;
    for (std::thread& t : drained) t.join();
  }
}

void SpmdEngine::serve_loop(comm::Communicator* active,
                            model::ForecastModel* model,
                            std::uint64_t min_stamp) {
  auto* fe = dynamic_cast<core::DchagFrontEnd*>(&model->frontend_mut());
  // Regrouped handles (degraded survivor groups, adopted healed groups)
  // live here; `active` always points at the current one.
  std::optional<comm::Communicator> owned;
  std::uint64_t adopted = 0;
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // A respawned participant (min_stamp > 0) consumes only jobs
      // stamped at or past its recovery epoch: everything earlier ran —
      // or is running — on groups it is not part of.
      cv_job_.wait(lock, [&] {
        return stop_ || (job_seq_ > seen && job_.heal_epoch >= min_stamp);
      });
      if (stop_) return;
      seen = job_seq_;
      job = job_;
    }
    bool done = false;
    while (!done) {
      try {
        if (fe != nullptr && job.heal_epoch > adopted) {
          // A heal completed: every participant moves to the full-width
          // group at this same stamped job, so the collective schedule
          // stays lockstep. The respawned rank pre-joined the same group
          // ("healed@<epoch>") through its minted handle.
          const std::vector<int> full = full_membership(ranks_);
          owned = active->split_survivors(
              full, "healed@" + std::to_string(job.heal_epoch));
          active = &*owned;
          fe->rebind(*active, full);
          adopted = job.heal_epoch;
        }
        execute_job(*active, *model, job, seen);
        done = true;
      } catch (const comm::RankFailure&) {
        // Structural fault. Non-D-CHAG front-ends cannot regroup (their
        // channel partition is invisible to us): let the world die and
        // surface the repro string through failure_.
        if (fe == nullptr) throw;
        if (!recover(&active, &owned, fe)) return;  // casualty: exit
        // Survivor: retry the interrupted job on the regrouped world.
      }
    }
  }
}

void SpmdEngine::execute_job(comm::Communicator& comm,
                             model::ForecastModel& model, const Job& job,
                             std::uint64_t seq) {
  auto* fe = dynamic_cast<core::DchagFrontEnd*>(&model.frontend_mut());
  const bool degraded_world = fe != nullptr && comm.size() < fe->world_size();
  // A throwing forward must not kill the world: capture the error and
  // keep serving. Model validation runs on identical inputs on every rank
  // before any collective, so failures are uniform and all ranks reach
  // the barrier with the same (error) outcome. RankFailure is the
  // exception: it unwinds into recovery instead of publishing.
  autograd::Variable pred;
  std::exception_ptr err;
  bool degraded_answer = false;
  try {
    if (!degraded_world) {
      pred = job.channels->empty()
                 ? model.predict(model.frontend().select_input(*job.images),
                                 job.lead_time)
                 : model.predict_subset(*job.images, *job.channels,
                                        job.lead_time);
    } else {
      // Degraded survivor group: serve from the surviving channels. The
      // subset forward keeps only the representations of slots a survivor
      // carries, so it already drops lost channels; its arithmetic is a
      // healthy world's forward over the surviving subset. The head still
      // predicts every target channel, so the output shape is unchanged.
      const std::vector<int>& slots = fe->logical_slots();
      const Index c_local = fe->local_channels();
      std::vector<Index> channels = *job.channels;
      if (channels.empty()) {  // full request: every id, lost ones dropped
        channels.resize(static_cast<std::size_t>(fe->total_channels()));
        std::iota(channels.begin(), channels.end(), Index{0});
      }
      degraded_answer = std::any_of(
          channels.begin(), channels.end(), [&](Index c) {
            return !std::binary_search(slots.begin(), slots.end(),
                                       static_cast<int>(c / c_local));
          });
      pred = model.predict_subset(*job.images, channels, job.lead_time);
    }
  } catch (const comm::RankFailure&) {
    throw;
  } catch (...) {
    err = std::current_exception();
  }
  // All ranks hold the replicated outcome; sync before the group leader
  // publishes so no rank still reads the job slot afterwards.
  comm.barrier();
  if (comm.rank() == 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_error_ = err;
      if (!err) result_ = pred.value();
      done_seq_ = std::max(done_seq_, seq);
    }
    if (degraded_answer && !err && metrics_)
      metrics_->record_degraded_response();
    cv_done_.notify_all();
  }
}

bool SpmdEngine::recover(comm::Communicator** active,
                         std::optional<comm::Communicator>* owned,
                         core::DchagFrontEnd* fe) {
  for (;;) {
    const std::uint64_t epoch = (*active)->fault_epoch();
    const std::vector<int> alive = (*active)->alive_world_ranks();
    const int me = (*active)->world_rank();
    if (!std::binary_search(alive.begin(), alive.end(), me))
      return false;  // this participant is the casualty
    comm::Communicator next = (*active)->split_survivors(
        alive, "degraded@" + std::to_string(epoch));
    // Another event may have fired while we regrouped; the group we just
    // joined may then not match what the other survivors build — go
    // again with the fresh epoch. The stale group is abandoned; anyone
    // who DID start waiting in it holds a pre-event handle, which the
    // new event poisons, so nobody is stranded.
    if (next.fault_epoch() != epoch) continue;
    *owned = std::move(next);
    *active = &**owned;
    // Survivor group rank i keeps its original channel slot: world rank
    // r owned slot r at construction, so the alive list IS the slot map.
    fe->rebind(**active, alive);
    if (me == alive.front()) begin_recovery(**active, epoch, alive);
    return true;
  }
}

void SpmdEngine::begin_recovery(comm::Communicator& group,
                                std::uint64_t epoch,
                                const std::vector<int>& alive) {
  const std::vector<int> full = full_membership(ranks_);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> newly_dead;
  for (int r : serving_members_)
    if (!std::binary_search(alive.begin(), alive.end(), r))
      newly_dead.push_back(r);
  serving_members_ = alive;
  if (newly_dead.empty() || stop_) return;
  recovery_start_ = std::chrono::steady_clock::now();
  latest_recovery_epoch_ = epoch;
  for (int r : newly_dead) {
    ++pending_respawns_;
    // Mint the respawned rank's full-width handle here, on a stable
    // communicator; the thread owns it outright. It joins the same
    // "healed@<epoch>" group the survivors adopt at the stamped job.
    respawn_threads_.emplace_back(
        [this, epoch,
         handle = group.split_survivors_for(
             r, full, "healed@" + std::to_string(epoch))]() mutable {
          respawn_rank(std::move(handle), epoch);
        });
  }
}

void SpmdEngine::respawn_rank(comm::Communicator healed,
                              std::uint64_t epoch) {
  runtime::Scope ctx_scope(ctx_);
  autograd::NoGradGuard no_grad;
  std::unique_ptr<model::ForecastModel> model;
  try {
    // Same factory, same master seed: the rebuilt shard's replicated
    // parameters match the survivors'. The checkpoint reload covers
    // deployments whose rank-local weights have drifted from the seed
    // (e.g. after training) — and round-trips bit-for-bit regardless.
    model = factory_(healed);
    DCHAG_CHECK(model != nullptr, "respawn model factory returned null");
    model->eval();
    if (!checkpoint_dir_.empty())
      train::load_module(shard_path(checkpoint_dir_, healed.rank()), *model);
    // Freeze AFTER the reload: load_module mutates weights in place, and
    // panels packed before it would be stale (StaleWeightPackError).
    model->freeze_for_serving();
  } catch (...) {
    // The heal failed but the degraded world keeps serving; surface the
    // error on wait_recovered() rather than killing the engine.
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_respawns_;
      heal_error_ = std::current_exception();
    }
    cv_done_.notify_all();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_respawns_ == 0) {
      // Stamp jobs with the newest recovery epoch: every participant
      // switches to the full-width group at the first job dispatched
      // from here on (run() copies the stamp under this same mutex).
      heal_ready_epoch_ = latest_recovery_epoch_;
      serving_members_ = full_membership(ranks_);
      if (metrics_) {
        metrics_->record_recovery(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - recovery_start_)
                .count());
      }
    }
  }
  cv_done_.notify_all();
  tensor::plan::Arena arena;
  tensor::plan::ArenaScope arena_scope(arena);
  serve_loop(&healed, model.get(), /*min_stamp=*/epoch);
}

Tensor SpmdEngine::run(const Tensor& images,
                       const std::vector<Index>& channels, float lead_time) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  if (failure_) std::rethrow_exception(failure_);
  DCHAG_CHECK(!stop_, "run() on a stopped SpmdEngine");
  job_ = Job{&images, &channels, lead_time, heal_ready_epoch_};
  std::uint64_t seq = ++job_seq_;
  cv_job_.notify_all();
  const auto answered = [&] {
    return done_seq_ >= seq || failure_ != nullptr;
  };
  cv_done_.wait(lock, answered);
  if (failure_) std::rethrow_exception(failure_);
  if (job_error_) std::rethrow_exception(job_error_);  // world still serves
  return result_;
}

void SpmdEngine::wait_recovered() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] {
    return stop_ || failure_ != nullptr || pending_respawns_ == 0;
  });
  if (failure_) std::rethrow_exception(failure_);
  if (heal_error_) std::rethrow_exception(heal_error_);
}

InferenceFn SpmdEngine::inference_fn() {
  return [this](const Tensor& images, const std::vector<Index>& channels,
                float lead_time) { return run(images, channels, lead_time); };
}

}  // namespace dchag::serve
