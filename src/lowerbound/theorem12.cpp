#include "lowerbound/theorem12.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <utility>

#include "graph/dual_builders.hpp"

namespace dualrad::lowerbound {
namespace {

/// A stage whose continuation ("until i or i' is about to be isolated")
/// runs this many rounds, or an execution that commits kMaxRounds, means
/// the algorithm never again isolates the frontier: the broadcast never
/// completes, an even stronger witness, and the builder stops and flags
/// `stalled`.
constexpr Round kStageCap = 500'000;
constexpr Round kMaxRounds = 2'000'000;

/// How a committed round's messages were delivered by the adversary.
enum class Delivery : std::uint8_t {
  None,        ///< nobody sent
  All,         ///< every message reached every process (rules 1 and 3)
  Restricted,  ///< single A_k sender; reached exactly A_k ∪ {i, i'} (rule 2)
};

/// A committed round, possibly with the stage pair still symbolic.
struct RoundCommit {
  Delivery delivery = Delivery::None;
  /// Exact sender pids. For candidate rounds these are finalized when the
  /// stage's pair is chosen.
  std::vector<ProcessId> senders{};
  /// Restricted only: target pids (A_k; the stage pair is appended when
  /// chosen).
  std::vector<ProcessId> targets{};
};

/// Candidate-round bookkeeping needed to finalize senders later:
/// senders(pair) = a_send ∪ extra_out ∪ (n_c \ pair) ∪ (pair ∩ s).
struct PendingRound {
  std::size_t log_index = 0;
  std::vector<ProcessId> a_send{}, extra_out{}, n_c{}, s{};
};

class Builder {
 public:
  Builder(NodeId n, const ProcessFactory& factory,
          const Theorem12Options& options)
      : n_(n), options_(options) {
    DUALRAD_REQUIRE(n >= 9 && std::has_single_bit(
                                  static_cast<std::uint64_t>(n - 1)),
                    "theorem 12 needs n-1 a power of two, n-1 >= 8");
    committed_.resize(static_cast<std::size_t>(n));
    assigned_.assign(static_cast<std::size_t>(n), false);
    for (ProcessId pid = 0; pid < n; ++pid) {
      committed_[static_cast<std::size_t>(pid)] =
          factory(pid, n, /*seed=*/0);
    }
    // Synchronous start: everyone is activated before round 1; the source
    // process i0 = 0 receives the broadcast message from the environment.
    const Message env{/*token=*/true, kInvalidProcess, 0, 0};
    committed_[0]->on_activate(0, env);
    for (ProcessId pid = 1; pid < n; ++pid) {
      committed_[static_cast<std::size_t>(pid)]->on_activate(0, std::nullopt);
    }
    assigned_[0] = true;
    a_members_.push_back(0);
    node_of_pid_.assign(static_cast<std::size_t>(n), kInvalidNode);
    node_of_pid_[0] = 0;
  }

  Theorem12Result run() {
    result_.n = n_;
    result_.guaranteed_bound = theorem12_bound(n_);
    result_.stages_target = static_cast<int>((n_ - 1) / 4);

    if (!run_stage0()) return finish();
    for (int stage = 1; stage <= result_.stages_target; ++stage) {
      if (!run_stage(stage)) return finish();
      ++result_.stages_completed;
    }
    result_.valid = true;
    return finish();
  }

 private:
  // ---- peeking helpers (rely on the Process purity contract) ----

  [[nodiscard]] bool would_send(const Process& p, Round r) const {
    return p.next_action(r).send;
  }
  [[nodiscard]] Message message_of(const Process& p, Round r) const {
    const Action a = p.next_action(r);
    DUALRAD_CHECK(a.send, "peeked message of a silent process");
    return a.message;
  }

  [[nodiscard]] std::vector<ProcessId> committed_senders(Round r) const {
    std::vector<ProcessId> out;
    for (ProcessId pid = 0; pid < n_; ++pid) {
      if (would_send(*committed_[static_cast<std::size_t>(pid)], r)) {
        out.push_back(pid);
      }
    }
    return out;
  }

  // ---- feedback application ----

  void advance(Process& p, Round r, const Reception& fb) { p.on_receive(r, fb); }

  void advance_committed(Round r, const Reception& fb) {
    for (auto& p : committed_) advance(*p, r, fb);
  }

  // ---- stage 0: all G'-edges used every round, until i0 is about to be
  // isolated ----

  bool run_stage0() {
    const Round start = now_;
    for (;;) {
      const Round r = now_ + 1;
      const auto senders = committed_senders(r);
      if (senders.size() == 1 && senders.front() == 0) {
        about_to_send_ = 0;
        break;
      }
      if (now_ - start >= kStageCap || now_ >= kMaxRounds) {
        // i0 is never isolated: the message can never leave the source, so
        // the broadcast never completes. Strongest possible witness.
        result_.stalled = true;
        result_.valid = true;
        return false;
      }
      RoundCommit commit;
      commit.senders = senders;
      Reception fb = Reception::silence();
      if (senders.empty()) {
        commit.delivery = Delivery::None;
      } else if (senders.size() >= 2) {
        commit.delivery = Delivery::All;
        fb = Reception::collision();
      } else {
        commit.delivery = Delivery::All;
        fb = Reception::of(message_of(
            *committed_[static_cast<std::size_t>(senders.front())], r));
      }
      advance_committed(r, fb);
      log_.push_back(std::move(commit));
      now_ = r;
    }
    result_.stage_lengths.push_back(now_ - start);
    return true;
  }

  // ---- one stage of the construction ----

  bool run_stage(int stage) {
    const Round start = now_;
    const auto log2n1 = std::bit_width(static_cast<std::uint64_t>(n_ - 1)) - 1;
    const int ell_target = static_cast<int>(log2n1) - 2;
    const std::vector<ProcessId> a_before = a_members_;

    // Candidates: all unassigned ids.
    std::vector<ProcessId> candidates;
    std::vector<ProcessId> unassigned;
    for (ProcessId pid = 0; pid < n_; ++pid) {
      if (!assigned_[static_cast<std::size_t>(pid)]) unassigned.push_back(pid);
    }
    candidates = unassigned;
    DUALRAD_CHECK(2 * static_cast<NodeId>(candidates.size()) >= n_ - 1,
                  "candidate pool shrank below (n-1)/2");

    // In-pair branches, one per candidate.
    std::map<ProcessId, std::unique_ptr<Process>> inpair;
    for (ProcessId c : candidates) {
      inpair[c] = committed_[static_cast<std::size_t>(c)]->clone();
    }

    std::vector<PendingRound> pending;

    // ---- stage round 0: the isolated A_k process sends; its message is
    // delivered to exactly A_k ∪ {i, i'}. ----
    {
      const Round r = now_ + 1;
      const auto senders = committed_senders(r);
      if (senders.size() != 1 || senders.front() != about_to_send_ ||
          !assigned_[static_cast<std::size_t>(about_to_send_)]) {
        result_.valid = false;  // purity contract violated
        return false;
      }
      const Message m0 = message_of(
          *committed_[static_cast<std::size_t>(about_to_send_)], r);
      for (ProcessId a : a_before) {
        advance(*committed_[static_cast<std::size_t>(a)], r, Reception::of(m0));
      }
      for (auto& [c, p] : inpair) advance(*p, r, Reception::of(m0));
      for (ProcessId u : unassigned) {
        advance(*committed_[static_cast<std::size_t>(u)], r,
                Reception::silence());
      }
      RoundCommit commit;
      commit.delivery = Delivery::Restricted;
      commit.senders = {about_to_send_};
      commit.targets = a_before;  // pair appended at stage end
      pending_restricted_.push_back(log_.size());
      log_.push_back(std::move(commit));
      now_ = r;
    }

    // ---- candidate rounds 1 .. ell_target ----
    for (int ell_plus_1 = 1; ell_plus_1 <= ell_target; ++ell_plus_1) {
      const Round r = now_ + 1;
      std::vector<ProcessId> s_set, n_set, a_send, extra_out;
      for (ProcessId c : candidates) {
        if (would_send(*inpair[c], r)) s_set.push_back(c);
        if (would_send(*committed_[static_cast<std::size_t>(c)], r)) {
          n_set.push_back(c);
        }
      }
      for (ProcessId a : a_before) {
        if (would_send(*committed_[static_cast<std::size_t>(a)], r)) {
          a_send.push_back(a);
        }
      }
      for (ProcessId u : unassigned) {
        if (std::binary_search(candidates.begin(), candidates.end(), u)) {
          continue;
        }
        if (would_send(*committed_[static_cast<std::size_t>(u)], r)) {
          extra_out.push_back(u);
        }
      }

      Reception fb_a = Reception::silence();
      Reception fb_out = Reception::silence();
      Reception fb_in = Reception::silence();
      Delivery delivery = Delivery::None;
      std::vector<ProcessId> next_candidates;

      if (n_set.size() >= 2) {
        // Case I: drop the two smallest would-be out-branch senders; they
        // remain unassigned, send in this round, and collide.
        next_candidates = candidates;
        for (int drop = 0; drop < 2; ++drop) {
          next_candidates.erase(std::find(next_candidates.begin(),
                                          next_candidates.end(),
                                          n_set[static_cast<std::size_t>(drop)]));
        }
        fb_a = fb_out = fb_in = Reception::collision();
        delivery = Delivery::All;
      } else if (2 * s_set.size() >= candidates.size()) {
        // Case II: keep exactly the in-pair senders; both pair members then
        // send and collide.
        next_candidates = s_set;
        fb_a = fb_out = fb_in = Reception::collision();
        delivery = Delivery::All;
      } else {
        // Case III: keep candidates that send in neither branch.
        next_candidates.reserve(candidates.size());
        for (ProcessId c : candidates) {
          const bool in_s =
              std::binary_search(s_set.begin(), s_set.end(), c);
          const bool in_n =
              std::binary_search(n_set.begin(), n_set.end(), c);
          if (!in_s && !in_n) next_candidates.push_back(c);
        }
        // Real senders are pair-independent here: A_k senders, the possible
        // single n_set process (now surely unassigned), and re-senders among
        // previously removed candidates.
        const std::size_t total =
            a_send.size() + n_set.size() + extra_out.size();
        if (total == 0) {
          delivery = Delivery::None;
        } else if (total >= 2) {
          fb_a = fb_out = fb_in = Reception::collision();
          delivery = Delivery::All;
        } else if (a_send.size() == 1) {
          // Rule 2: reaches exactly A_k ∪ {i, i'}.
          const Message m = message_of(
              *committed_[static_cast<std::size_t>(a_send.front())], r);
          fb_a = fb_in = Reception::of(m);
          fb_out = Reception::silence();
          delivery = Delivery::Restricted;
        } else {
          // Rule 3: the lone unassigned sender reaches everyone.
          const ProcessId u =
              n_set.size() == 1 ? n_set.front() : extra_out.front();
          const Message m =
              message_of(*committed_[static_cast<std::size_t>(u)], r);
          fb_a = fb_out = fb_in = Reception::of(m);
          delivery = Delivery::All;
        }
      }

      // Advance every class.
      for (ProcessId a : a_before) {
        advance(*committed_[static_cast<std::size_t>(a)], r, fb_a);
      }
      for (ProcessId u : unassigned) {
        advance(*committed_[static_cast<std::size_t>(u)], r, fb_out);
      }
      for (auto it = inpair.begin(); it != inpair.end();) {
        if (std::binary_search(next_candidates.begin(), next_candidates.end(),
                               it->first)) {
          advance(*it->second, r, fb_in);
          ++it;
        } else {
          it = inpair.erase(it);
        }
      }

      // Log with symbolic pair; finalized below.
      RoundCommit commit;
      commit.delivery = delivery;
      if (delivery == Delivery::Restricted) {
        commit.targets = a_before;
        pending_restricted_.push_back(log_.size());
      }
      PendingRound pend;
      pend.log_index = log_.size();
      pend.a_send = std::move(a_send);
      pend.extra_out = std::move(extra_out);
      pend.n_c = n_set;
      pend.s = std::move(s_set);
      pending.push_back(std::move(pend));
      log_.push_back(std::move(commit));
      now_ = r;

      candidates = std::move(next_candidates);
      // Claim 13, part 1: |C_{l+1}| >= (n-1) / 2^{l+2}.
      if (static_cast<Round>(candidates.size()) <
          (static_cast<Round>(n_) - 1) / (Round{1} << (ell_plus_1 + 1))) {
        result_.valid = false;
        return false;
      }
    }

    if (candidates.size() < 2) {
      result_.valid = false;
      return false;
    }
    const ProcessId i1 = candidates[0];
    const ProcessId i2 = candidates[1];

    // Finalize the symbolic rounds for the chosen pair.
    for (const PendingRound& pend : pending) {
      auto& commit = log_[pend.log_index];
      std::vector<ProcessId> senders = pend.a_send;
      for (ProcessId u : pend.extra_out) senders.push_back(u);
      for (ProcessId u : pend.n_c) {
        if (u != i1 && u != i2) senders.push_back(u);
      }
      for (ProcessId p : {i1, i2}) {
        if (std::binary_search(pend.s.begin(), pend.s.end(), p)) {
          senders.push_back(p);
        }
      }
      std::sort(senders.begin(), senders.end());
      commit.senders = std::move(senders);
    }

    // ---- continuation: run beta_{i1,i2} until i1 or i2 is about to be
    // isolated. ----
    std::vector<ProcessId> others;  // unassigned minus the pair
    for (ProcessId u : unassigned) {
      if (u != i1 && u != i2) others.push_back(u);
    }
    for (;;) {
      const Round r = now_ + 1;
      std::vector<ProcessId> a_send, out_send, pair_send;
      for (ProcessId a : a_before) {
        if (would_send(*committed_[static_cast<std::size_t>(a)], r)) {
          a_send.push_back(a);
        }
      }
      for (ProcessId u : others) {
        if (would_send(*committed_[static_cast<std::size_t>(u)], r)) {
          out_send.push_back(u);
        }
      }
      for (ProcessId p : {i1, i2}) {
        if (would_send(*inpair[p], r)) pair_send.push_back(p);
      }
      const std::size_t total =
          a_send.size() + out_send.size() + pair_send.size();
      if (total == 1 && pair_send.size() == 1) {
        about_to_send_ = pair_send.front();
        break;  // this round is NOT executed; it seeds the next stage
      }
      if (now_ - start >= kStageCap || now_ >= kMaxRounds) {
        result_.stalled = true;
        result_.valid = true;
        commit_pair(stage, i1, i2, inpair, a_before);
        result_.stage_lengths.push_back(now_ - start);
        result_.stage_pairs.emplace_back(i1, i2);
        return false;
      }

      Reception fb_a = Reception::silence();
      Reception fb_out = Reception::silence();
      Reception fb_in = Reception::silence();
      RoundCommit commit;
      commit.senders = a_send;
      for (ProcessId u : out_send) commit.senders.push_back(u);
      for (ProcessId p : pair_send) commit.senders.push_back(p);
      std::sort(commit.senders.begin(), commit.senders.end());
      if (total == 0) {
        commit.delivery = Delivery::None;
      } else if (total >= 2) {
        fb_a = fb_out = fb_in = Reception::collision();
        commit.delivery = Delivery::All;
      } else if (a_send.size() == 1) {
        const Message m = message_of(
            *committed_[static_cast<std::size_t>(a_send.front())], r);
        fb_a = fb_in = Reception::of(m);
        commit.delivery = Delivery::Restricted;
        commit.targets = a_before;
        pending_restricted_.push_back(log_.size());
      } else {
        // single unassigned (non-pair) sender: rule 3, reaches everyone.
        const Message m = message_of(
            *committed_[static_cast<std::size_t>(out_send.front())], r);
        fb_a = fb_out = fb_in = Reception::of(m);
        commit.delivery = Delivery::All;
      }
      for (ProcessId a : a_before) {
        advance(*committed_[static_cast<std::size_t>(a)], r, fb_a);
      }
      for (ProcessId u : others) {
        advance(*committed_[static_cast<std::size_t>(u)], r, fb_out);
      }
      advance(*inpair[i1], r, fb_in);
      advance(*inpair[i2], r, fb_in);
      log_.push_back(std::move(commit));
      now_ = r;
    }

    commit_pair(stage, i1, i2, inpair, a_before);
    result_.stage_lengths.push_back(now_ - start);
    result_.stage_pairs.emplace_back(i1, i2);
    return true;
  }

  void commit_pair(int stage, ProcessId i1, ProcessId i2,
                   std::map<ProcessId, std::unique_ptr<Process>>& inpair,
                   const std::vector<ProcessId>& a_before) {
    (void)a_before;
    committed_[static_cast<std::size_t>(i1)] = std::move(inpair.at(i1));
    committed_[static_cast<std::size_t>(i2)] = std::move(inpair.at(i2));
    assigned_[static_cast<std::size_t>(i1)] = true;
    assigned_[static_cast<std::size_t>(i2)] = true;
    a_members_.push_back(i1);
    a_members_.push_back(i2);
    node_of_pid_[static_cast<std::size_t>(i1)] =
        static_cast<NodeId>(2 * stage - 1);
    node_of_pid_[static_cast<std::size_t>(i2)] =
        static_cast<NodeId>(2 * stage);
    // Append the pair to every Restricted round recorded this stage.
    for (std::size_t idx : pending_restricted_) {
      log_[idx].targets.push_back(i1);
      log_[idx].targets.push_back(i2);
    }
    pending_restricted_.clear();
  }

  Theorem12Result finish() {
    result_.total_rounds = now_;
    result_.covered_processes =
        static_cast<NodeId>(2 * result_.stages_completed + 1);
    if (result_.stalled && result_.stages_completed < result_.stages_target) {
      result_.covered_processes = static_cast<NodeId>(a_members_.size());
    }
    if (options_.build_script) materialize_script();
    return std::move(result_);
  }

  void materialize_script() {
    // Assign remaining processes to remaining nodes, ascending.
    std::vector<bool> node_used(static_cast<std::size_t>(n_), false);
    for (ProcessId pid = 0; pid < n_; ++pid) {
      const NodeId v = node_of_pid_[static_cast<std::size_t>(pid)];
      if (v != kInvalidNode) node_used[static_cast<std::size_t>(v)] = true;
    }
    NodeId next_node = 0;
    for (ProcessId pid = 0; pid < n_; ++pid) {
      if (node_of_pid_[static_cast<std::size_t>(pid)] != kInvalidNode) continue;
      while (node_used[static_cast<std::size_t>(next_node)]) ++next_node;
      node_of_pid_[static_cast<std::size_t>(pid)] = next_node;
      node_used[static_cast<std::size_t>(next_node)] = true;
    }
    result_.script.process_of_node.assign(static_cast<std::size_t>(n_),
                                          kInvalidProcess);
    for (ProcessId pid = 0; pid < n_; ++pid) {
      result_.script.process_of_node[static_cast<std::size_t>(
          node_of_pid_[static_cast<std::size_t>(pid)])] = pid;
    }

    const DualGraph net = duals::theorem12_network(n_);
    result_.script.reach.resize(log_.size());
    for (std::size_t ridx = 0; ridx < log_.size(); ++ridx) {
      const RoundCommit& commit = log_[ridx];
      if (commit.delivery == Delivery::None) continue;
      auto& plan = result_.script.reach[ridx];
      for (ProcessId p : commit.senders) {
        const NodeId u = node_of_pid_[static_cast<std::size_t>(p)];
        if (commit.delivery == Delivery::All) {
          const auto extra = net.unreliable_out(u);
          plan[u].assign(extra.begin(), extra.end());
          continue;
        }
        // Restricted: message reaches exactly the targets' nodes.
        std::vector<bool> is_target(static_cast<std::size_t>(n_), false);
        for (ProcessId t : commit.targets) {
          is_target[static_cast<std::size_t>(
              node_of_pid_[static_cast<std::size_t>(t)])] = true;
        }
        for (NodeId v : net.g_csr().row(u)) {
          DUALRAD_CHECK(is_target[static_cast<std::size_t>(v)],
                        "restricted delivery would miss a reliable neighbor");
        }
        std::vector<NodeId> extra;
        for (NodeId v : net.unreliable_out(u)) {
          if (is_target[static_cast<std::size_t>(v)]) extra.push_back(v);
        }
        plan[u] = std::move(extra);
      }
    }
  }

  NodeId n_;
  Theorem12Options options_;
  std::vector<std::unique_ptr<Process>> committed_;
  std::vector<bool> assigned_;
  std::vector<ProcessId> a_members_;
  std::vector<NodeId> node_of_pid_;
  Round now_ = 0;
  ProcessId about_to_send_ = kInvalidProcess;
  std::vector<RoundCommit> log_;
  std::vector<std::size_t> pending_restricted_;
  Theorem12Result result_;
};

}  // namespace

Round theorem12_bound(NodeId n) {
  DUALRAD_REQUIRE(n >= 9, "theorem 12 bound needs n >= 9");
  const auto log2n1 =
      static_cast<Round>(std::bit_width(static_cast<std::uint64_t>(n - 1)) - 1);
  return static_cast<Round>((n - 1) / 4) * (log2n1 - 2);
}

Theorem12Result run_theorem12(NodeId n, const ProcessFactory& factory,
                              const Theorem12Options& options) {
  Builder builder(n, factory, options);
  return builder.run();
}

}  // namespace dualrad::lowerbound
