// Service type repository (OMG CosTradingRepos::ServiceTypeRepository analog).
//
// A service type names the functional interface offers must implement and
// declares the nonfunctional properties they may/must carry. Types support
// subtyping: a lookup for "Printer" also returns offers of "ColorPrinter"
// when ColorPrinter lists Printer as a supertype.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "base/value.h"
#include "trading/errors.h"

namespace adapt::trading {

struct PropertyDef {
  enum class Mode {
    Normal,             // optional, modifiable
    Readonly,           // optional, fixed once exported
    Mandatory,          // required at export, modifiable
    MandatoryReadonly,  // required at export, fixed
  };

  std::string name;
  /// Loose value type: any|boolean|number|string|table|object.
  std::string type = "any";
  Mode mode = Mode::Normal;

  [[nodiscard]] bool mandatory() const {
    return mode == Mode::Mandatory || mode == Mode::MandatoryReadonly;
  }
  [[nodiscard]] bool readonly() const {
    return mode == Mode::Readonly || mode == Mode::MandatoryReadonly;
  }
};

struct ServiceTypeDef {
  std::string name;
  /// Interface-repository name offers must implement.
  std::string interface = {};
  std::vector<PropertyDef> properties = {};
  std::vector<std::string> supertypes = {};
  /// Masked types cannot receive new offers (OMG mask_type).
  bool masked = false;
};

class ServiceTypeRepository {
 public:
  /// Adds a type. Throws DuplicateServiceType / UnknownServiceType (missing
  /// supertype) / PropertyMismatch (property redefined incompatibly vs a
  /// supertype).
  void add(ServiceTypeDef def);

  /// Removes a type; throws UnknownServiceType when absent or TradingError
  /// when other types inherit from it.
  void remove(const std::string& name);

  void mask(const std::string& name);
  void unmask(const std::string& name);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::optional<ServiceTypeDef> find(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> list() const;

  /// True when `sub` == `super` or transitively declares it a supertype.
  [[nodiscard]] bool is_subtype(const std::string& sub, const std::string& super) const;

  /// All property definitions visible on a type (own + inherited).
  [[nodiscard]] std::vector<PropertyDef> effective_properties(const std::string& name) const;

  /// Checks a Value against a loose property type name.
  static bool value_matches_type(const Value& v, const std::string& type);

 private:
  [[nodiscard]] bool is_subtype_locked(const std::string& sub, const std::string& super,
                                       int depth) const;
  void collect_props_locked(const std::string& name, std::vector<PropertyDef>& out,
                            int depth) const;

  mutable std::mutex mu_;
  std::map<std::string, ServiceTypeDef> types_;
};

}  // namespace adapt::trading
