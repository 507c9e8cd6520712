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

  const auto handle = [&](const Message& msg, ClientState& client) {
    WireReader r(msg.payload);
    switch (static_cast<Req>(r.pod<std::uint8_t>())) {
      case Req::kOpenSession: {
        sessions.push_back(exec.open_session(decode_tenant_config(r)));
        WireWriter w;
        w.pod(static_cast<std::int32_t>(sessions.size() - 1));
        reply(comm, msg.src, std::move(w));
        break;
      }
      case Req::kSubmit: {
        const auto session = r.pod<std::int32_t>();
        const auto token = r.pod<std::uint64_t>();
        const SubmitOptions opts_in = decode_submit_options(r);
        JobId id = kInvalidJob;
        const auto seen = token != 0 ? client.submits.find(token)
                                     : client.submits.end();
        if (seen != client.submits.end()) {
          // Duplicate token: the job is already in — reply the original id
          // without decoding the DAG again (exactly-once submission).
          id = seen->second;
        } else {
          auto dag = std::make_unique<Dag>(decode_dag(r));
          if (session < 0) {
            id = exec.submit(*dag, opts_in);
          } else {
            DAS_CHECK_MSG(static_cast<std::size_t>(session) < sessions.size(),
                          "serve_executor: unknown session");
            id = sessions[static_cast<std::size_t>(session)]->submit(*dag,
                                                                     opts_in);
          }
          dags.emplace(id, std::move(dag));
          if (token != 0) client.submits.emplace(token, id);
          client.unwaited.emplace(id, token);
        }
        WireWriter w;
        w.pod(id);
        reply(comm, msg.src, std::move(w));
        break;
      }
      case Req::kWait: {
        const auto id = r.pod<JobId>();
        const RunResult result = exec.wait(id);
        dags.erase(id);
        client.retire(id);
        WireWriter w;
        encode_run_result(to_wire(result), w);
        reply(comm, msg.src, std::move(w));
        break;
      }
      case Req::kWaitFor: {
        const auto id = r.pod<JobId>();
        const auto timeout_s = r.pod<double>();
        const std::optional<RunResult> result = exec.wait_for(id, timeout_s);
        WireWriter w;
        w.pod(static_cast<std::uint8_t>(result.has_value() ? 1 : 0));
        if (result.has_value()) {
          dags.erase(id);
          client.retire(id);
          encode_run_result(to_wire(*result), w);
        }
        reply(comm, msg.src, std::move(w));
        break;
      }
      case Req::kPing: {
        WireWriter w;
        w.pod(static_cast<std::uint8_t>(1));
        reply(comm, msg.src, std::move(w));
        break;
      }
      case Req::kBye:
        if (!client.departed) {
          client.departed = true;
          ++byes;
        }
        break;
    }
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
      // release and run, or resolve rejected/timed-out), then free the
      // seat. A late request from the client is still answered — only its
      // seat accounting is settled.
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
  comm_.send(server_, kTagServiceRequest, w.data(), w.size());
  // Synchronous request/reply against a live server; bounded client-side
  // variants exist only where a reply can legitimately not come (wait_for).
  return comm_.recv_value<std::int32_t>(  // daslint: allow(unbounded-wait)
      server_, kTagServiceReply);
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
  comm_.send(server_, kTagServiceRequest, w.data(), w.size());
  return comm_.recv_value<JobId>(  // daslint: allow(unbounded-wait)
      server_, kTagServiceReply);
}

WireRunResult ServiceClient::wait(JobId id) {
  WireWriter w;
  w.pod(static_cast<std::uint8_t>(Req::kWait));
  w.pod(id);
  comm_.send(server_, kTagServiceRequest, w.data(), w.size());
  const Message msg =
      comm_.recv_msg(server_, kTagServiceReply);  // daslint: allow(unbounded-wait)
  WireReader r(msg.payload);
  return decode_run_result(r);
}

std::optional<WireRunResult> ServiceClient::wait_for(JobId id,
                                                     double timeout_s) {
  WireWriter w;
  w.pod(static_cast<std::uint8_t>(Req::kWaitFor));
  w.pod(id);
  w.pod(timeout_s);
  comm_.send(server_, kTagServiceRequest, w.data(), w.size());
  // The server bounds the engine wait; its reply always comes, so this
  // receive is request/reply like the others.
  const Message msg =
      comm_.recv_msg(server_, kTagServiceReply);  // daslint: allow(unbounded-wait)
  WireReader r(msg.payload);
  if (r.pod<std::uint8_t>() == 0) return std::nullopt;
  return decode_run_result(r);
}

void ServiceClient::ping() {
  WireWriter w;
  w.pod(static_cast<std::uint8_t>(Req::kPing));
  comm_.send(server_, kTagServiceRequest, w.data(), w.size());
  (void)comm_.recv_value<std::uint8_t>(  // daslint: allow(unbounded-wait)
      server_, kTagServiceReply);
}

void ServiceClient::bye() {
  WireWriter w;
  w.pod(static_cast<std::uint8_t>(Req::kBye));
  comm_.send(server_, kTagServiceRequest, w.data(), w.size());
}

}  // namespace das::net
