#include "rbc/oracle.hpp"

namespace dr::rbc {

OracleRbc::OracleRbc(net::Bus& net, ProcessId pid)
    : net_(net), pid_(pid), delivered_(net.n()) {
  net_.subscribe(pid_, net::Channel::kOracle,
                 [this](ProcessId from, const net::Payload& msg) {
                   on_message(from, msg);
                 });
}

void OracleRbc::broadcast(Round r, net::Payload payload) {
  ByteWriter w(payload.size() + 12);
  w.u64(r);
  w.blob(payload.view());
  net_.broadcast(pid_, net::Channel::kOracle, std::move(w).take());
}

void OracleRbc::on_message(ProcessId from, const net::Payload& msg) {
  ByteReader in(msg.view());
  const Round r = in.u64();
  const std::uint32_t len = in.u32();
  if (!in.ok() || in.remaining() != len) return;
  // Integrity: first payload per (source, round) wins; an equivocating
  // sender is silently reduced to its first message, which is exactly the
  // guarantee a real RBC provides.
  if (!delivered_[from].insert(r)) return;
  contract_on_deliver(from, r);
  // Blob starts after [u64 r][u32 len] = 12 header bytes.
  if (deliver_) deliver_(from, r, msg.window(12, len));
}

}  // namespace dr::rbc
