#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "obs/registry.hpp"
#include "util/build_info.hpp"

namespace mwr::util {

Cli::Cli(std::string program_description)
    : description_(std::move(program_description)) {}

void Cli::add_int(const std::string& name, std::int64_t default_value,
                  const std::string& help) {
  Entry e;
  e.kind = Kind::kInt;
  e.help = help;
  e.int_value = default_value;
  if (entries_.emplace(name, std::move(e)).second) order_.push_back(name);
}

void Cli::add_double(const std::string& name, double default_value,
                     const std::string& help) {
  Entry e;
  e.kind = Kind::kDouble;
  e.help = help;
  e.double_value = default_value;
  if (entries_.emplace(name, std::move(e)).second) order_.push_back(name);
}

void Cli::add_string(const std::string& name, std::string default_value,
                     const std::string& help) {
  Entry e;
  e.kind = Kind::kString;
  e.help = help;
  e.string_value = std::move(default_value);
  if (entries_.emplace(name, std::move(e)).second) order_.push_back(name);
}

void Cli::add_flag(const std::string& name, const std::string& help) {
  Entry e;
  e.kind = Kind::kFlag;
  e.help = help;
  if (entries_.emplace(name, std::move(e)).second) order_.push_back(name);
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (arg == "--version") {
      // Program name = first word of the description ("bench_regret — ...").
      const auto cut = description_.find_first_of(" —");
      std::cout << build_info_line(description_.substr(0, cut)) << "\n";
      return false;
    }
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected positional argument: " + arg);
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    const auto it = entries_.find(name);
    if (it == entries_.end())
      throw std::invalid_argument("unknown flag: --" + name);
    Entry& e = it->second;
    if (e.kind == Kind::kFlag) {
      if (has_inline)
        throw std::invalid_argument("switch --" + name + " takes no value");
      e.flag_value = true;
      continue;
    }
    std::string value;
    if (has_inline) {
      value = inline_value;
    } else {
      if (i + 1 >= argc)
        throw std::invalid_argument("flag --" + name + " needs a value");
      value = argv[++i];
    }
    switch (e.kind) {
      case Kind::kInt: {
        char* end = nullptr;
        e.int_value = std::strtoll(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0')
          throw std::invalid_argument("flag --" + name +
                                      " expects an integer, got: " + value);
        break;
      }
      case Kind::kDouble: {
        char* end = nullptr;
        e.double_value = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0')
          throw std::invalid_argument("flag --" + name +
                                      " expects a number, got: " + value);
        break;
      }
      case Kind::kString:
        e.string_value = value;
        break;
      case Kind::kFlag:
        break;  // handled above
    }
  }
  return true;
}

const Cli::Entry& Cli::lookup(const std::string& name, Kind kind) const {
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::logic_error("flag never registered: --" + name);
  if (it->second.kind != kind)
    throw std::logic_error("flag --" + name + " accessed with wrong type");
  return it->second;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return lookup(name, Kind::kInt).int_value;
}

double Cli::get_double(const std::string& name) const {
  return lookup(name, Kind::kDouble).double_value;
}

const std::string& Cli::get_string(const std::string& name) const {
  return lookup(name, Kind::kString).string_value;
}

bool Cli::get_flag(const std::string& name) const {
  return lookup(name, Kind::kFlag).flag_value;
}

std::string Cli::usage() const {
  std::ostringstream out;
  out << description_ << "\n[" << build_info_line("built as") << "]"
      << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    out << "  --" << name;
    switch (e.kind) {
      case Kind::kInt:
        out << " N (default " << e.int_value << ")";
        break;
      case Kind::kDouble:
        out << " X (default " << e.double_value << ")";
        break;
      case Kind::kString:
        out << " S (default \"" << e.string_value << "\")";
        break;
      case Kind::kFlag:
        break;
    }
    out << "\n      " << e.help << "\n";
  }
  return out.str();
}

void add_metrics_flag(Cli& cli) {
  cli.add_string("metrics-out", "",
                 "write a metrics JSON snapshot to this path at exit");
}

bool write_metrics_if_requested(const Cli& cli) {
  const std::string& path = cli.get_string("metrics-out");
  if (path.empty()) return false;
  obs::MetricsRegistry::global().write_json(path);
  return true;
}

}  // namespace mwr::util
