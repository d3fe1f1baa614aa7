#include "util/cli.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace samurai::util {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    const std::string name = body.substr(0, eq);
    names_.push_back(name);
    if (eq != std::string::npos) {
      options_[name] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[name] = argv[++i];
    } else {
      options_[name] = "true";  // bare flag
    }
  }
}

void Cli::require_declared(
    std::initializer_list<std::string_view> declared) const {
  for (const std::string& name : names_) {
    if (std::find(declared.begin(), declared.end(), name) == declared.end()) {
      throw std::invalid_argument("unknown option --" + name);
    }
  }
}

bool Cli::has(const std::string& name) const { return options_.count(name) != 0; }

std::string Cli::get_string(const std::string& name, std::string fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? std::move(fallback) : it->second;
}

namespace {

/// `parse(text, &used)` must consume all of `text`; anything else (no
/// number, trailing junk, a parse error) throws naming the option.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& text,
                 const char* expects, Parse parse) {
  try {
    std::size_t used = 0;
    const auto value = parse(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("option --" + name + " expects " + expects +
                              ", got '" + text + "'");
}

}  // namespace

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parse_whole(name, it->second, "a number",
                     [](const std::string& text, std::size_t* used) {
                       return std::stod(text, used);
                     });
}

long long Cli::get_int(const std::string& name, long long fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parse_whole(name, it->second, "an integer",
                     [](const std::string& text, std::size_t* used) {
                       return std::stoll(text, used);
                     });
}

long long Cli::get_count(const std::string& name, long long fallback) const {
  const long long value = get_int(name, fallback);
  if (value < 1) {
    throw std::invalid_argument("option --" + name +
                                " expects a positive count, got " +
                                std::to_string(value));
  }
  return value;
}

double Cli::get_positive_double(const std::string& name,
                                double fallback) const {
  const double value = get_double(name, fallback);
  if (!(value > 0.0)) {  // rejects zero, negatives and NaN alike
    throw std::invalid_argument("option --" + name +
                                " expects a positive number, got " +
                                std::to_string(value));
  }
  return value;
}

std::uint64_t Cli::get_u64(const std::string& name, std::uint64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parse_whole(name, it->second, "an unsigned integer",
                     [](const std::string& text, std::size_t* used) {
                       // stoull would wrap "-3" to 2^64 - 3.
                       if (text.empty() || !std::isdigit(
                               static_cast<unsigned char>(text[0]))) {
                         throw std::invalid_argument("not unsigned");
                       }
                       return std::stoull(text, used, 0);  // 0x.. is hex
                     });
}

}  // namespace samurai::util
