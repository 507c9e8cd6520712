#include "net/service.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace das::net {

namespace {

enum class Req : std::uint8_t {
  kOpenSession = 0,
  kSubmit,
  kWait,
  kBye,
  kPing,
  kWaitFor,
};

/// First byte of every reply: kOk, then the request's result, or kRefused,
/// then the reason. A refused request changed nothing on the server.
enum class Status : std::uint8_t { kOk = 0, kRefused };

WireRunResult to_wire(const RunResult& r) {
  WireRunResult w;
  w.makespan_s = r.makespan_s;
  w.tasks_per_s = r.tasks_per_s;
  w.tasks = r.tasks;
  w.job = r.job;
  w.arrival_s = r.arrival_s;
  w.queue_s = r.queue_s;
  w.tenant = r.tenant;
  w.backend = static_cast<std::uint8_t>(r.backend);
  w.policy = static_cast<std::uint8_t>(r.policy);
  w.outcome = static_cast<std::uint8_t>(r.outcome);
  w.tasks_reexecuted = r.tasks_reexecuted;
  return w;
}

void reply(Comm& comm, int dst, WireWriter w) {
  const std::vector<std::byte> bytes = w.take();
  comm.send(dst, kTagServiceReply, bytes.data(), bytes.size());
}

// Per-client server-side bookkeeping: liveness, the idempotency tokens of
// the jobs in flight, and which jobs a reap must drain.
struct ClientState {
  std::chrono::steady_clock::time_point last_seen;
  std::map<std::uint64_t, JobId> submits;  // token -> original JobId
  std::map<JobId, std::uint64_t> unwaited;  // job -> its token (0 = none)
  bool departed = false;  // bye'd or reaped; its seat is already freed

  /// The job was waited: it leaves the unwaited set and its token retires,
  /// so the token map holds only jobs in flight (a reap clears both).
  void retire(JobId id) {
    const auto it = unwaited.find(id);
    if (it == unwaited.end()) return;
    if (it->second != 0) submits.erase(it->second);
    unwaited.erase(it);
  }
};

/// A decoded request that passed every check the server makes before the
/// executor sees it. Which fields are set depends on `kind`.
struct Request {
  Req kind = Req::kPing;
  TenantConfig tenant;        // kOpenSession
  std::int32_t session = -1;  // kSubmit; < 0 submits bare
  std::uint64_t token = 0;    // kSubmit
  SubmitOptions opts;         // kSubmit
  std::unique_ptr<Dag> dag;   // kSubmit, unless the token is a duplicate
  JobId job = kInvalidJob;    // kWait, kWaitFor; kSubmit's duplicate
  double timeout_s = 0.0;     // kWaitFor
};

/// Decodes and checks one request from `client`. Throws PreconditionError,
/// having changed nothing, for a request the server refuses: a payload that
/// does not decode, an unknown kind or session, options or a tenant config
/// the executor would reject, or a wait on a job that is not one of the
/// client's unwaited jobs (another client's, already waited, or unknown).
Request decode_request(const Message& msg, const ClientState& client,
                       std::size_t num_sessions) {
  WireReader r(msg.payload);
  Request q;
  q.kind = static_cast<Req>(r.pod<std::uint8_t>());
  switch (q.kind) {
    case Req::kOpenSession:
      q.tenant = decode_tenant_config(r);
      check_tenant_config(q.tenant);
      break;
    case Req::kSubmit: {
      q.session = r.pod<std::int32_t>();
      q.token = r.pod<std::uint64_t>();
      q.opts = decode_submit_options(r);
      DAS_CHECK_MSG(q.session < 0 ||
                        static_cast<std::size_t>(q.session) < num_sessions,
                    "serve_executor: unknown session " << q.session);
      check_submit_options(q.opts);
      const auto seen = q.token != 0 ? client.submits.find(q.token)
                                     : client.submits.end();
      // A duplicate token names a job already in: no second DAG decode
      // (exactly-once submission).
      if (seen != client.submits.end())
        q.job = seen->second;
      else
        q.dag = std::make_unique<Dag>(decode_dag(r));
      break;
    }
    case Req::kWait:
    case Req::kWaitFor:
      q.job = r.pod<JobId>();
      DAS_CHECK_MSG(client.unwaited.count(q.job) != 0,
                    "serve_executor: job " << q.job
                                           << " is not an unwaited job of "
                                              "this client");
      if (q.kind == Req::kWaitFor) {
        q.timeout_s = r.pod<double>();
        DAS_CHECK_MSG(q.timeout_s >= 0.0,
                      "serve_executor: wait_for timeout must be >= 0");
      }
      break;
    case Req::kBye:
    case Req::kPing:
      break;
    default:
      DAS_CHECK_MSG(false, "serve_executor: unknown request kind "
                               << static_cast<int>(q.kind));
  }
  return q;
}

/// Sends `request` to the server and hands the reply, after its status
/// byte, to `read`. A refusal throws PreconditionError with the server's
/// reason.
template <class Read>
auto call(Comm& comm, int server, const WireWriter& request, Read&& read) {
  comm.send(server, kTagServiceRequest, request.data(), request.size());
  // Synchronous request/reply against a live server: every request but bye
  // gets one reply, and wait_for's bound is applied server-side.
  const Message msg =
      comm.recv_msg(server, kTagServiceReply);  // daslint: allow(unbounded-wait)
  WireReader r(msg.payload);
  if (r.pod<Status>() == Status::kRefused) throw PreconditionError(r.str());
  return read(r);
}

}  // namespace

void serve_executor(Comm& comm, Executor& exec, const ServeOptions& opts) {
  const int num_clients =
      opts.num_clients < 0 ? comm.size() - 1 : opts.num_clients;
  DAS_CHECK(opts.tick_s > 0.0);
  DAS_CHECK(opts.client_timeout_s >= 0.0);
  // Decoded DAGs must outlive their jobs (Executor::submit borrows the
  // dag until the job is waited); keyed by public JobId, freed at wait.
  std::map<JobId, std::unique_ptr<Dag>> dags;
  std::vector<std::unique_ptr<Session>> sessions;
  std::map<int, ClientState> clients;
  const bool reaping = opts.client_timeout_s > 0.0;
  // When the whole world is the client set, seat everyone up front so a
  // client that dies before its FIRST request is still reaped. An explicit
  // num_clients names a subset we cannot enumerate — those seats open at
  // first contact.
  if (reaping && num_clients == comm.size() - 1) {
    const auto start = std::chrono::steady_clock::now();
    for (int rnk = 0; rnk < comm.size(); ++rnk)
      if (rnk != comm.rank()) clients[rnk].last_seen = start;
  }
  int byes = 0;

  const auto refuse = [&](int dst, const PreconditionError& e) {
    WireWriter w;
    w.pod(Status::kRefused);
    w.str(e.what());
    reply(comm, dst, std::move(w));
  };
  const auto handle = [&](const Message& msg, ClientState& client) {
    Request q;
    try {
      q = decode_request(msg, client, sessions.size());
    } catch (const PreconditionError& e) {
      refuse(msg.src, e);
      return;
    }
    WireWriter w;
    w.pod(Status::kOk);
    switch (q.kind) {
      case Req::kOpenSession:
        sessions.push_back(exec.open_session(std::move(q.tenant)));
        w.pod(static_cast<std::int32_t>(sessions.size() - 1));
        break;
      case Req::kSubmit:
        if (q.dag != nullptr) {
          // The executor refuses a DAG its engine cannot run before the job
          // takes an id, so a refused submit changed nothing.
          try {
            q.job = q.session < 0
                        ? exec.submit(*q.dag, q.opts)
                        : sessions[static_cast<std::size_t>(q.session)]
                              ->submit(*q.dag, q.opts);
          } catch (const PreconditionError& e) {
            refuse(msg.src, e);
            return;
          }
          dags.emplace(q.job, std::move(q.dag));
          if (q.token != 0) client.submits.emplace(q.token, q.job);
          client.unwaited.emplace(q.job, q.token);
        }
        w.pod(q.job);
        break;
      case Req::kWait: {
        const RunResult result = exec.wait(q.job);
        dags.erase(q.job);
        client.retire(q.job);
        encode_run_result(to_wire(result), w);
        break;
      }
      case Req::kWaitFor: {
        const std::optional<RunResult> result =
            exec.wait_for(q.job, q.timeout_s);
        w.pod(static_cast<std::uint8_t>(result.has_value() ? 1 : 0));
        if (result.has_value()) {
          dags.erase(q.job);
          client.retire(q.job);
          encode_run_result(to_wire(*result), w);
        }
        break;
      }
      case Req::kPing:  // the status byte is the whole reply
        break;
      case Req::kBye:  // no reply
        if (!client.departed) {
          client.departed = true;
          ++byes;
        }
        return;
    }
    reply(comm, msg.src, std::move(w));
  };

  while (byes < num_clients) {
    // Bounded receive: a dead client cannot wedge the server between
    // requests — every tick falls through to the reaping scan below.
    std::optional<Message> msg =
        comm.recv_any_for(kTagServiceRequest, opts.tick_s);
    if (msg.has_value()) {
      ClientState& client = clients[msg->src];
      client.last_seen = std::chrono::steady_clock::now();
      handle(*msg, client);
    }
    if (!reaping) continue;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [src, client] : clients) {
      if (client.departed) continue;
      const double silent_s =
          std::chrono::duration<double>(now - client.last_seen).count();
      if (silent_s < opts.client_timeout_s) continue;
      // Heartbeat lost: drain the client's outstanding jobs so their DAG
      // buffers can be freed (released jobs run to completion; queued jobs
      // release and run, or resolve rejected), then free the seat. Only the
      // submitting client may wait a job, so none of these was waited yet.
      // A late request from the client is still answered — only its seat
      // accounting is settled.
      for (const auto& [id, token] : client.unwaited) {
        exec.wait(id);
        dags.erase(id);
      }
      client.unwaited.clear();
      client.submits.clear();
      client.departed = true;
      ++byes;
    }
  }
}

void serve_executor(Comm& comm, Executor& exec, int num_clients) {
  ServeOptions opts;
  opts.num_clients = num_clients;
  serve_executor(comm, exec, opts);
}

int ServiceClient::open_session(const TenantConfig& cfg) {
  WireWriter w;
  w.pod(static_cast<std::uint8_t>(Req::kOpenSession));
  encode_tenant_config(cfg, w);
  return call(comm_, server_, w,
              [](WireReader& r) { return r.pod<std::int32_t>(); });
}

JobId ServiceClient::submit(const Dag& dag, const SubmitOptions& opts,
                            int session) {
  return resubmit(dag, opts, session, next_token_++);
}

JobId ServiceClient::resubmit(const Dag& dag, const SubmitOptions& opts,
                              int session, std::uint64_t token) {
  WireWriter w;
  w.pod(static_cast<std::uint8_t>(Req::kSubmit));
  w.pod(static_cast<std::int32_t>(session));
  w.pod(token);
  encode_submit_options(opts, w);
  encode_dag(dag, w);
  return call(comm_, server_, w, [](WireReader& r) { return r.pod<JobId>(); });
}

WireRunResult ServiceClient::wait(JobId id) {
  WireWriter w;
  w.pod(static_cast<std::uint8_t>(Req::kWait));
  w.pod(id);
  return call(comm_, server_, w,
              [](WireReader& r) { return decode_run_result(r); });
}

std::optional<WireRunResult> ServiceClient::wait_for(JobId id,
                                                     double timeout_s) {
  WireWriter w;
  w.pod(static_cast<std::uint8_t>(Req::kWaitFor));
  w.pod(id);
  w.pod(timeout_s);
  return call(comm_, server_, w,
              [](WireReader& r) -> std::optional<WireRunResult> {
                if (r.pod<std::uint8_t>() == 0) return std::nullopt;
                return decode_run_result(r);
              });
}

void ServiceClient::ping() {
  WireWriter w;
  w.pod(static_cast<std::uint8_t>(Req::kPing));
  call(comm_, server_, w, [](WireReader&) {});
}

void ServiceClient::bye() {
  WireWriter w;
  w.pod(static_cast<std::uint8_t>(Req::kBye));
  comm_.send(server_, kTagServiceRequest, w.data(), w.size());
}

}  // namespace das::net
