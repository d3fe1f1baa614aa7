#include "spice/parser.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

#include "physics/mos_device.hpp"
#include "physics/technology.hpp"
#include "spice/devices.hpp"

namespace samurai::spice {

ParseError::ParseError(std::size_t line, const std::string& message)
    : std::runtime_error("netlist line " + std::to_string(line) + ": " + message),
      line_(line) {}

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Split a physical line into whitespace/comma/parenthesis-separated
/// tokens; '(' and ')' are dropped (PWL(0 0 1n 1) == PWL 0 0 1n 1).
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char ch : line) {
    if (std::isspace(static_cast<unsigned char>(ch)) || ch == ',' || ch == '(' ||
        ch == ')') {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else {
      current += ch;
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

struct Line {
  std::size_t number;
  std::vector<std::string> tokens;
};

/// Strip comments, join '+' continuations, tokenize.
std::vector<Line> logical_lines(const std::string& text, std::string& title) {
  std::vector<Line> lines;
  std::istringstream stream(text);
  std::string raw;
  std::size_t number = 0;
  bool first = true;
  while (std::getline(stream, raw)) {
    ++number;
    const auto semi = raw.find(';');
    if (semi != std::string::npos) raw.erase(semi);
    // Trim.
    const auto begin = raw.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const auto end = raw.find_last_not_of(" \t\r");
    raw = raw.substr(begin, end - begin + 1);
    if (first) {
      // Classic SPICE: the first non-blank line is always the title.
      first = false;
      title = raw[0] == '*' ? raw.substr(1) : raw;
      continue;
    }
    if (raw[0] == '*') continue;
    if (raw[0] == '+') {
      if (lines.empty()) throw ParseError(number, "continuation without a previous card");
      auto extra = tokenize(raw.substr(1));
      lines.back().tokens.insert(lines.back().tokens.end(), extra.begin(),
                                 extra.end());
      continue;
    }
    auto tokens = tokenize(raw);
    if (!tokens.empty()) lines.push_back({number, std::move(tokens)});
  }
  return lines;
}

struct ModelCard {
  physics::MosType type = physics::MosType::kNmos;
  std::string node = "90nm";
  double vth_shift = 0.0;
};

/// `name=value` parameter or empty.
bool split_param(const std::string& token, std::string& key, std::string& value) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return false;
  key = lower(token.substr(0, eq));
  value = token.substr(eq + 1);
  return true;
}

/// A `.rtn` seed: an unsigned 64-bit decimal spanning the whole token.
std::uint64_t parse_seed(std::size_t line, const std::string& token) {
  std::uint64_t seed = 0;
  const char* end = token.data() + token.size();
  const auto [last, error] = std::from_chars(token.data(), end, seed);
  if (error != std::errc() || last != end) {
    throw ParseError(line, ".rtn seed must be an unsigned 64-bit integer, got '" +
                               token + "'");
  }
  return seed;
}

core::Pwl parse_source_waveform(const Line& line, std::size_t first_token) {
  const auto& t = line.tokens;
  if (first_token >= t.size()) {
    throw ParseError(line.number, "source needs a value");
  }
  const std::string kind = lower(t[first_token]);
  if (kind == "dc") {
    if (first_token + 1 >= t.size()) {
      throw ParseError(line.number, "DC needs a value");
    }
    return core::Pwl::constant(parse_spice_value(t[first_token + 1]));
  }
  if (kind == "pwl") {
    std::vector<double> times, values;
    for (std::size_t i = first_token + 1; i + 1 < t.size(); i += 2) {
      times.push_back(parse_spice_value(t[i]));
      values.push_back(parse_spice_value(t[i + 1]));
    }
    if (times.size() < 2 || (t.size() - first_token - 1) % 2 != 0) {
      throw ParseError(line.number, "PWL needs an even number of >= 4 values");
    }
    try {
      return core::Pwl(std::move(times), std::move(values));
    } catch (const std::invalid_argument& e) {
      throw ParseError(line.number, std::string("bad PWL: ") + e.what());
    }
  }
  if (kind == "pulse") {
    if (first_token + 7 >= t.size()) {
      throw ParseError(line.number,
                       "PULSE needs v0 v1 delay rise width fall period");
    }
    const double v0 = parse_spice_value(t[first_token + 1]);
    const double v1 = parse_spice_value(t[first_token + 2]);
    const double delay = parse_spice_value(t[first_token + 3]);
    const double rise = parse_spice_value(t[first_token + 4]);
    const double width = parse_spice_value(t[first_token + 5]);
    const double fall = parse_spice_value(t[first_token + 6]);
    const double period = parse_spice_value(t[first_token + 7]);
    try {
      return pulse_waveform(v0, v1, delay, rise, width, fall, period, 50);
    } catch (const std::invalid_argument& e) {
      throw ParseError(line.number, std::string("bad PULSE: ") + e.what());
    }
  }
  // Bare value: DC.
  return core::Pwl::constant(parse_spice_value(t[first_token]));
}

/// Parse the node=value pairs of a .nodeset/.ic card. The tokenizer has
/// split `v(node)=1.2` into "v", "node", "=1.2", so pairs are assembled
/// across tokens: a bare token names a node, a token with '=' supplies a
/// value (possibly with its own key).
std::map<std::string, double> parse_nodeset_pairs(const Line& line) {
  std::map<std::string, double> pairs;
  std::string pending_node;
  for (std::size_t i = 1; i < line.tokens.size(); ++i) {
    const std::string& token = line.tokens[i];
    if (lower(token) == "v") continue;
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      pending_node = lower(token);
      continue;
    }
    std::string key = lower(token.substr(0, eq));
    if (key.empty()) {
      if (pending_node.empty()) {
        throw ParseError(line.number, "expected v(node)=value");
      }
      key = pending_node;
    }
    try {
      pairs[key] = parse_spice_value(token.substr(eq + 1));
    } catch (const std::invalid_argument& e) {
      throw ParseError(line.number, e.what());
    }
    pending_node.clear();
  }
  if (!pending_node.empty()) {
    throw ParseError(line.number, "node '" + pending_node + "' has no value");
  }
  return pairs;
}

}  // namespace

double parse_spice_value(const std::string& token) {
  if (token.empty()) throw std::invalid_argument("empty value");
  std::size_t consumed = 0;
  double value;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad number '" + token + "'");
  }
  std::string suffix = lower(token.substr(consumed));
  // Strip trailing unit letters after a recognised suffix (e.g. "10pF").
  static const std::vector<std::pair<std::string, double>> kSuffixes = {
      {"meg", 1e6}, {"t", 1e12}, {"g", 1e9}, {"k", 1e3}, {"m", 1e-3},
      {"u", 1e-6},  {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15},
  };
  if (suffix.empty()) return value;
  for (const auto& [text, factor] : kSuffixes) {
    if (suffix.rfind(text, 0) == 0) return value * factor;
  }
  throw std::invalid_argument("bad value suffix '" + token + "'");
}

ParsedNetlist parse_netlist(const std::string& text) {
  ParsedNetlist result;
  result.circuit = std::make_unique<Circuit>();
  Circuit& circuit = *result.circuit;

  const auto lines = logical_lines(text, result.title);

  // Pass 1: collect .model cards (M cards may reference them earlier).
  std::map<std::string, ModelCard> models;
  for (const auto& line : lines) {
    if (lower(line.tokens[0]) != ".model") continue;
    if (line.tokens.size() < 3) {
      throw ParseError(line.number, ".model needs a name and a type");
    }
    ModelCard model;
    const std::string type = lower(line.tokens[2]);
    if (type == "nmos") {
      model.type = physics::MosType::kNmos;
    } else if (type == "pmos") {
      model.type = physics::MosType::kPmos;
    } else {
      throw ParseError(line.number, "unknown model type '" + type + "'");
    }
    for (std::size_t i = 3; i < line.tokens.size(); ++i) {
      std::string key, value;
      if (!split_param(line.tokens[i], key, value)) {
        throw ParseError(line.number, "expected key=value in .model");
      }
      if (key == "node") {
        model.node = value;
      } else if (key == "vth_shift") {
        model.vth_shift = parse_spice_value(value);
      } else {
        throw ParseError(line.number, "unknown .model parameter '" + key + "'");
      }
    }
    models[lower(line.tokens[1])] = model;
  }

  // Node names are case-insensitive in the netlist dialect.
  auto node_of = [&](const std::string& name) { return circuit.node(lower(name)); };

  // Card lines of each .rtn request and .print node, for the checks that
  // can only run once every card is in.
  std::vector<std::size_t> rtn_lines;
  std::vector<std::size_t> print_lines;
  bool ended = false;
  for (const auto& line : lines) {
    if (ended) throw ParseError(line.number, "content after .end");
    const auto& t = line.tokens;
    const std::string head = lower(t[0]);
    const char kind = head[0];
    auto need = [&](std::size_t n, const char* what) {
      if (t.size() < n) throw ParseError(line.number, std::string(what));
    };
    switch (kind) {
      case 'r': {
        need(4, "R card: Rname n1 n2 value");
        try {
          circuit.add<Resistor>(t[0], node_of(t[1]), node_of(t[2]),
                                parse_spice_value(t[3]));
        } catch (const std::invalid_argument& e) {
          throw ParseError(line.number, e.what());
        }
        break;
      }
      case 'c': {
        need(4, "C card: Cname n1 n2 value");
        try {
          circuit.add<Capacitor>(t[0], node_of(t[1]), node_of(t[2]),
                                 parse_spice_value(t[3]));
        } catch (const std::invalid_argument& e) {
          throw ParseError(line.number, e.what());
        }
        break;
      }
      case 'v': {
        need(4, "V card: Vname n+ n- spec");
        circuit.add<VoltageSource>(circuit, t[0], node_of(t[1]), node_of(t[2]),
                                   parse_source_waveform(line, 3));
        break;
      }
      case 'i': {
        need(4, "I card: Iname n+ n- spec");
        // A deck's PWL corners are landed exactly, as for a V card.
        circuit
            .add<CurrentSource>(t[0], node_of(t[1]), node_of(t[2]),
                                parse_source_waveform(line, 3))
            .set_emit_breakpoints(true);
        break;
      }
      case 'm': {
        need(6, "M card: Mname d g s b model [W=..] [L=..]");
        const auto it = models.find(lower(t[5]));
        if (it == models.end()) {
          throw ParseError(line.number, "unknown model '" + t[5] + "'");
        }
        const ModelCard& model = it->second;
        physics::Technology tech;
        try {
          tech = physics::technology(model.node);
        } catch (const std::invalid_argument& e) {
          throw ParseError(line.number, e.what());
        }
        physics::MosGeometry geom{tech.w_min, tech.l_min};
        for (std::size_t i = 6; i < t.size(); ++i) {
          std::string key, value;
          if (!split_param(t[i], key, value)) {
            throw ParseError(line.number, "expected key=value on M card");
          }
          if (key == "w") {
            geom.width = parse_spice_value(value);
          } else if (key == "l") {
            geom.length = parse_spice_value(value);
          } else {
            throw ParseError(line.number, "unknown M parameter '" + key + "'");
          }
        }
        try {
          circuit.add<Mosfet>(t[0], node_of(t[1]), node_of(t[2]),
                              node_of(t[3]), node_of(t[4]),
                              physics::MosDevice(tech, model.type, geom,
                                                 model.vth_shift));
        } catch (const std::invalid_argument& e) {
          throw ParseError(line.number, e.what());
        }
        break;
      }
      case '.': {
        if (head == ".model") break;  // handled in pass 1
        if (head == ".end") {
          ended = true;
          break;
        }
        if (head == ".tran") {
          need(3, ".tran step stop");
          result.has_tran = true;
          result.tran.dt_max = parse_spice_value(t[1]);
          result.tran.t_stop = parse_spice_value(t[2]);
          if (!(result.tran.t_stop > 0.0)) {
            throw ParseError(line.number, ".tran stop must be positive");
          }
          break;
        }
        if (head == ".nodeset" || head == ".ic") {
          for (const auto& [node, value] : parse_nodeset_pairs(line)) {
            result.tran.dc.nodeset[node] = value;
          }
          break;
        }
        if (head == ".rtn") {
          need(2, ".rtn device [scale=..] [seed=..]");
          RtnRequest request;
          request.device = t[1];
          for (std::size_t i = 2; i < t.size(); ++i) {
            std::string key, value;
            if (!split_param(t[i], key, value)) {
              throw ParseError(line.number, "expected key=value on .rtn");
            }
            if (key == "scale") {
              try {
                request.scale = parse_spice_value(value);
              } catch (const std::invalid_argument& e) {
                throw ParseError(line.number, e.what());
              }
              if (!std::isfinite(request.scale)) {
                throw ParseError(line.number, ".rtn scale must be finite");
              }
            } else if (key == "seed") {
              request.seed = parse_seed(line.number, value);
            } else {
              throw ParseError(line.number, "unknown .rtn parameter '" + key + "'");
            }
          }
          if (std::any_of(result.rtn_requests.begin(), result.rtn_requests.end(),
                          [&](const RtnRequest& earlier) {
                            return earlier.device == request.device;
                          })) {
            throw ParseError(line.number,
                             "second .rtn card for '" + request.device + "'");
          }
          result.rtn_requests.push_back(std::move(request));
          rtn_lines.push_back(line.number);
          break;
        }
        if (head == ".print" || head == ".probe") {
          for (std::size_t i = 1; i < t.size(); ++i) {
            if (lower(t[i]) == "v") continue;  // the "v" of "v(node)"
            result.print_nodes.push_back(lower(t[i]));
            print_lines.push_back(line.number);
          }
          break;
        }
        throw ParseError(line.number, "unknown directive '" + head + "'");
      }
      default:
        throw ParseError(line.number, "unknown card '" + t[0] + "'");
    }
  }

  // Validate .rtn devices exist and are MOSFETs.
  for (std::size_t i = 0; i < result.rtn_requests.size(); ++i) {
    const std::string& device = result.rtn_requests[i].device;
    if (result.circuit->find<Mosfet>(device) == nullptr) {
      throw ParseError(rtn_lines[i],
                       ".rtn references unknown MOSFET '" + device + "'");
    }
  }
  // Validate print nodes exist.
  for (std::size_t i = 0; i < result.print_nodes.size(); ++i) {
    const std::string& node = result.print_nodes[i];
    if (node != "0" && node != "gnd" && !result.circuit->has_node(node)) {
      throw ParseError(print_lines[i],
                       ".print references unknown node '" + node + "'");
    }
  }
  return result;
}

TransientResult run_netlist(const std::string& text) {
  auto parsed = parse_netlist(text);
  if (parsed.has_tran) {
    return transient(*parsed.circuit, parsed.tran);
  }
  DcOptions dc;
  dc.nodeset = parsed.tran.dc.nodeset;
  const auto op = dc_operating_point(*parsed.circuit, dc);
  if (!op.converged) {
    throw std::runtime_error("netlist DC operating point did not converge");
  }
  TransientResult result(parsed.circuit->node_names());
  result.record(0.0, op.x, parsed.circuit->num_nodes());
  return result;
}

}  // namespace samurai::spice
