#include "src/core/circuit.h"

#include <algorithm>
#include <bit>
#include <set>

#include "src/base/bits.h"
#include "src/base/error.h"
#include "src/base/strings.h"

namespace qhip {

unsigned Circuit::depth() const {
  unsigned d = 0;
  for (const auto& g : gates) d = std::max(d, g.time + 1);
  return d;
}

std::map<std::string, std::size_t> Circuit::histogram() const {
  std::map<std::string, std::size_t> h;
  for (const auto& g : gates) ++h[g.name];
  return h;
}

std::size_t Circuit::num_measurements() const {
  std::size_t n = 0;
  for (const auto& g : gates) n += g.is_measurement() ? 1 : 0;
  return n;
}

void Circuit::validate() const {
  check(num_qubits >= 1 && num_qubits <= 40,
        "Circuit: num_qubits must be in [1, 40]");
  unsigned prev_time = 0;
  std::set<qubit_t> moment_qubits;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    const std::string where = strfmt("gate %zu ('%s', t=%u)", i, g.name.c_str(), g.time);
    check(g.time >= prev_time, where + ": time goes backwards");
    if (g.time != prev_time) {
      moment_qubits.clear();
      prev_time = g.time;
    }
    check(!g.qubits.empty(), where + ": no target qubits");
    std::set<qubit_t> seen;
    for (qubit_t q : g.all_qubits()) {
      check(q < num_qubits, where + strfmt(": qubit %u out of range", q));
      check(seen.insert(q).second, where + strfmt(": qubit %u repeated", q));
      check(moment_qubits.insert(q).second,
            where + strfmt(": qubit %u already used in moment %u", q, g.time));
    }
    if (g.kind == GateKind::kUnitary) {
      check(g.matrix.dim() == pow2(g.num_targets()),
            where + ": matrix dimension does not match qubit count");
    } else {
      check(g.matrix.dim() == 0, where + ": measurement gates carry no matrix");
    }
  }
}

void append_circuit_identity(std::string& out, const Circuit& c) {
  std::size_t bytes = 2 * sizeof(std::uint64_t);
  for (const Gate& g : c.gates) {
    const std::size_t words =
        7 + g.qubits.size() + g.controls.size() + g.params.size();
    bytes += words * sizeof(std::uint64_t) + g.name.size() +
             g.matrix.data().size() * sizeof(cplx64);
  }
  out.reserve(out.size() + bytes);
  append_word(out, c.num_qubits);
  append_word(out, c.gates.size());
  for (const Gate& g : c.gates) {
    append_word(out, static_cast<std::uint64_t>(g.kind));
    append_word(out, g.name.size());
    out += g.name;
    append_word(out, g.time);
    append_word(out, g.qubits.size());
    for (qubit_t q : g.qubits) append_word(out, q);
    append_word(out, g.controls.size());
    for (qubit_t q : g.controls) append_word(out, q);
    append_word(out, g.params.size());
    for (double p : g.params) append_word(out, std::bit_cast<std::uint64_t>(p));
    append_word(out, g.matrix.dim());
    const std::vector<cplx64>& m = g.matrix.data();
    out.append(reinterpret_cast<const char*>(m.data()),
               m.size() * sizeof(cplx64));
  }
}

Circuit inverse_circuit(const Circuit& c) {
  Circuit out;
  out.num_qubits = c.num_qubits;
  out.gates.reserve(c.size());
  unsigned time = 0;
  for (auto it = c.gates.rbegin(); it != c.gates.rend(); ++it) {
    check(!it->is_measurement(), "inverse_circuit: measurement is not invertible");
    Gate g = *it;
    g.matrix = g.matrix.adjoint();
    g.name = g.name + "_dg";
    g.time = time++;
    out.gates.push_back(std::move(g));
  }
  return out;
}

Circuit concatenate(const Circuit& a, const Circuit& b) {
  check(a.num_qubits == b.num_qubits, "concatenate: qubit count mismatch");
  Circuit out = a;
  const unsigned offset = a.depth();
  for (Gate g : b.gates) {
    g.time += offset;
    out.gates.push_back(std::move(g));
  }
  return out;
}

Circuit normalize_circuit(const Circuit& c) {
  Circuit out;
  out.num_qubits = c.num_qubits;
  out.gates.reserve(c.gates.size());
  for (const Gate& g : c.gates) {
    if (g.is_measurement()) {
      out.gates.push_back(g);
      continue;
    }
    out.gates.push_back(normalized(g.controls.empty() ? g : expand_controls(g)));
  }
  return out;
}

CMatrix circuit_unitary(const Circuit& c) {
  check(c.num_qubits <= 12, "circuit_unitary: too many qubits for dense form");
  CMatrix u = CMatrix::identity(pow2(c.num_qubits));
  for (const auto& g : c.gates) {
    check(!g.is_measurement(), "circuit_unitary: circuit contains measurement");
    const Gate e = g.controls.empty() ? g : expand_controls(g);
    std::vector<unsigned> positions(e.qubits.begin(), e.qubits.end());
    u.compose_on_qubits(e.matrix, positions);
  }
  return u;
}

}  // namespace qhip
