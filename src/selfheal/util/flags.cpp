#include "selfheal/util/flags.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "selfheal/util/text_reader.hpp"

namespace selfheal::util {

namespace {

[[noreturn]] void refuse(const std::string& name, const char* what,
                         const std::string& text) {
  throw std::invalid_argument("--" + name + ": bad " + what + " '" + text + "'");
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)].text = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg].text = argv[++i];
    } else {
      values_[arg].text = "true";
    }
  }
}

const std::string* Flags::find(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  it->second.read = true;
  return &it->second.text;
}

bool Flags::has(const std::string& name) const { return find(name) != nullptr; }

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  const auto* text = find(name);
  return text == nullptr ? fallback : *text;
}

std::size_t Flags::get_count(const std::string& name, std::size_t fallback) const {
  const auto* text = find(name);
  if (text == nullptr) return fallback;
  const auto value = parse_int<std::size_t>(*text);
  if (!value) refuse(name, "count", *text);
  return *value;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto* text = find(name);
  if (text == nullptr) return fallback;
  double value = 0.0;
  const char* last = text->data() + text->size();
  const auto [ptr, ec] = std::from_chars(text->data(), last, value);
  if (text->empty() || ec != std::errc() || ptr != last || !std::isfinite(value)) {
    refuse(name, "number", *text);
  }
  return value;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto* text = find(name);
  if (text == nullptr) return fallback;
  if (*text == "true" || *text == "1" || *text == "yes") return true;
  if (*text == "false" || *text == "0" || *text == "no") return false;
  refuse(name, "boolean", *text);
}

void Flags::done() const {
  for (const auto& [name, value] : values_) {
    if (!value.read) throw std::invalid_argument("unknown flag --" + name);
  }
}

int run_main(int argc, const char* const* argv,
             const std::function<int(const Flags&)>& body) {
  std::string_view program = argc > 0 ? argv[0] : "";
  program.remove_prefix(program.rfind('/') + 1);  // npos + 1 == 0
  try {
    return body(Flags(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(program.size()),
                 program.data(), e.what());
    return 2;
  }
}

}  // namespace selfheal::util
