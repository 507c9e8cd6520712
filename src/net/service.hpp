#pragma once
// Scheduler-as-a-service front-end over the in-process message-passing world
// (net/world.hpp): one long-running EXECUTOR RANK serves DAG submissions
// from CLIENT RANKS and ships their RunResults back.
//
//     world.run([&](net::Comm& comm) {
//       if (comm.rank() == 0) {
//         auto exec = das::make_executor(...);
//         net::serve_executor(comm, *exec);          // until all clients bye
//       } else {
//         net::ServiceClient client(comm, /*server_rank=*/0);
//         const int session = client.open_session({.name = "bench"});
//         const JobId id = client.submit(dag, {}, session);
//         const net::WireRunResult r = client.wait(id);
//         client.bye();
//       }
//     });
//
// DAGs cross the wire via net/wire.hpp, so only cost-model-driven execution
// is remotely submittable (work closures do not serialize — the wire header
// documents the contract). A sim-backed server is deterministic: the same
// client submission sequence yields results bitwise-equal to running the
// same executor locally (tests/net_service_test.cpp).
//
// The server handles requests SEQUENTIALLY in arrival order; a wait request
// blocks the server until that job completes (or its wait_for deadline
// expires), so clients needing overlap should submit everything before the
// first wait (submissions release to the engine immediately — the engine
// runs jobs concurrently regardless). A concurrently-serving front-end
// (thread per client) is a documented follow-up.
//
// FAULT TOLERANCE. The server's receive loop is deadline-bounded
// (Comm::recv_any_for), so a half-dead client cannot wedge it:
// * ServeOptions::client_timeout_s > 0 arms SESSION REAPING — a client
//   whose last request (any request; ServiceClient::ping() is the cheapest)
//   is older than the timeout is treated as departed: its unwaited jobs are
//   drained (released jobs always run to completion), their DAG buffers
//   freed, and its seat counted as a bye, so serve_executor still returns.
//   Staleness is only measured between requests — a server blocked inside
//   an engine wait does not reap.
// * Submissions carry an IDEMPOTENCY TOKEN: resending a submit with the
//   same token (ServiceClient::resubmit, after e.g. a lost-reply timeout in
//   a real transport) returns the original JobId instead of enqueueing the
//   job twice — exactly-once submission over an at-least-once client retry.
//   The server remembers a token only while its job is in flight, the
//   window in which a submit reply can be lost: a wait (or a wait_for that
//   returns the result) or a reap retires it, so a long-lived client does
//   not grow the server's token map, and the token may be spent again.
// * ServiceClient::wait_for bounds the wait server-side
//   (Executor::wait_for): the reply says whether the job finished, and a
//   timed-out job stays waitable.
// * REFUSALS. Every reply starts with a status byte. The server decodes and
//   checks each request before the executor sees it, and refuses — instead
//   of throwing out of serve_executor, which would end the service for
//   every client — a payload that does not decode, an unknown request kind
//   or session index, submit options or a tenant config the executor would
//   reject (check_submit_options, check_tenant_config), a negative or NaN
//   wait_for timeout, and a wait or wait_for on a job that is not one of
//   the client's own unwaited jobs. A well-formed DAG the server's engine
//   cannot run (a node rank it lacks, say) is refused too: the executor's
//   submit throws before the job takes an id, bare or session, deferred or
//   not. ServiceClient turns a refusal into a PreconditionError carrying
//   the server's reason.

#include <cstdint>
#include <optional>

#include "exec/executor.hpp"
#include "net/comm.hpp"
#include "net/wire.hpp"

namespace das::net {

/// Reserved user tags for the service protocol. Applications sharing a
/// world with a service must pick other tags.
inline constexpr int kTagServiceRequest = 0x5351;
inline constexpr int kTagServiceReply = 0x5352;

/// serve_executor knobs.
struct ServeOptions {
  /// Clients to serve before returning (each bye or reap frees one seat);
  /// -1 = every other rank in the world.
  int num_clients = -1;
  /// > 0 arms session reaping: a client silent for this many seconds
  /// (wall clock, measured between requests at the server's receive loop)
  /// is drained and counted as departed. 0 = never reap (a vanished client
  /// then leaves the server waiting — only use with trusted clients).
  double client_timeout_s = 0.0;
  /// Receive-loop granularity: the bound on each mailbox wait, and hence
  /// the reaping latency slack. Purely an internal tick — no protocol
  /// semantics attach to it.
  double tick_s = 0.05;
};

/// Serves `exec` over `comm` until every client seat is released (bye or
/// reap). Call from the server rank's world thread; requests are handled in
/// arrival order across clients.
void serve_executor(Comm& comm, Executor& exec, const ServeOptions& opts);
/// Back-compat overload: no reaping, default tick.
void serve_executor(Comm& comm, Executor& exec, int num_clients = -1);

/// Client-side handle: serializes requests to the server rank and decodes
/// its replies. One handle per client rank; calls are synchronous
/// (request/reply) and must come from the rank's own world thread. A call
/// the server refuses throws PreconditionError with the server's reason.
class ServiceClient {
 public:
  ServiceClient(Comm& comm, int server_rank)
      : comm_(comm), server_(server_rank) {}

  /// Remote Executor::open_session: returns the server-side session index
  /// to pass as submit()'s `session`.
  int open_session(const TenantConfig& cfg);

  /// Remote submit: encodes `dag` + `opts`; `session` < 0 submits bare.
  /// Returns the server-side public JobId. The dag is copied onto the wire
  /// — unlike local submit, it need not outlive the call. Each call spends
  /// a fresh idempotency token; last_submit_token() identifies it for
  /// resubmit().
  JobId submit(const Dag& dag, const SubmitOptions& opts = {},
               int session = -1);

  /// Idempotent re-send of an earlier submit: same payload, explicit
  /// `token`. If the server accepted that token for a job that is still in
  /// flight (not yet waited), it replies with the ORIGINAL JobId and
  /// enqueues nothing — safe to fire after a suspected lost reply. Once
  /// that job was waited the token is retired, and a submit with it is a
  /// new job.
  JobId resubmit(const Dag& dag, const SubmitOptions& opts, int session,
                 std::uint64_t token);

  /// Token spent by the most recent submit(); 0 if none yet.
  std::uint64_t last_submit_token() const { return next_token_ - 1; }

  /// Remote Executor::wait: blocks until the job's result arrives.
  WireRunResult wait(JobId id);

  /// Remote Executor::wait_for: the server bounds the wait on ITS engine
  /// clock and replies either the result or "not yet" (nullopt). A
  /// timed-out job stays waitable (wait/wait_for again later).
  std::optional<WireRunResult> wait_for(JobId id, double timeout_s);

  /// Heartbeat: refreshes this client's liveness on a reaping server
  /// (ServeOptions::client_timeout_s) without submitting work.
  void ping();

  /// Releases this client's seat; the server returns once every client
  /// said bye. No requests may follow.
  void bye();

 private:
  Comm& comm_;
  int server_;
  std::uint64_t next_token_ = 1;  // 0 is "no token spent yet"
};

}  // namespace das::net
