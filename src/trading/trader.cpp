#include "trading/trader.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.h"

namespace adapt::trading {

namespace {

/// Wire keys marking a dynamic property inside a marshalled property table.
constexpr const char* kDynEvalKey = "__dynamic_eval";
constexpr const char* kDynExtraKey = "__dynamic_extra";

std::vector<std::string> string_list_from_value(const Value& v) {
  std::vector<std::string> out;
  if (!v.is_table()) return out;
  const Table& t = *v.as_table();
  for (int64_t i = 1; i <= t.length(); ++i) out.push_back(t.geti(i).as_string());
  return out;
}

Value string_list_to_value(const std::vector<std::string>& items) {
  auto t = Table::make();
  for (const auto& s : items) t->append(Value(s));
  return Value(std::move(t));
}

/// The slot of `offer` in its type's sequence-ordered list.
std::vector<OfferPtr>::iterator slot_of(std::vector<OfferPtr>& list, const ServiceOffer& offer) {
  return std::lower_bound(list.begin(), list.end(), offer.sequence,
                          [](const OfferPtr& o, uint64_t seq) { return o->sequence < seq; });
}

bool expired(const ServiceOffer& offer, double now) {
  return offer.expires_at > 0 && offer.expires_at <= now;
}

/// A count policy from the wire. Remote input: a NaN, infinite or negative
/// number is refused, and one beyond T's range is clamped before the cast
/// (casting it would be undefined behaviour). The Admin limits apply later.
template <typename T>
T policy_count(const Value& x, const char* name) {
  const double d = x.as_number();
  if (!std::isfinite(d) || d < 0) {
    throw TradingError(std::string("lookup policy '") + name +
                       "' must be a finite non-negative number");
  }
  constexpr T kMax = std::numeric_limits<T>::max();
  return d >= static_cast<double>(kMax) ? kMax : static_cast<T>(d);
}

}  // namespace

// ---- wire conversion -----------------------------------------------------

Value Trader::property_map_to_value(const PropertyMap& props) {
  auto t = Table::make();
  for (const auto& [name, prop] : props) {
    if (prop.is_dynamic()) {
      auto dyn = Table::make();
      dyn->set(Value(kDynEvalKey), Value(prop.dynamic().eval));
      dyn->set(Value(kDynExtraKey), prop.dynamic().extra);
      t->set(Value(name), Value(std::move(dyn)));
    } else {
      t->set(Value(name), prop.static_value());
    }
  }
  return Value(std::move(t));
}

PropertyMap Trader::property_map_from_value(const Value& v) {
  PropertyMap props;
  if (!v.is_table()) return props;
  for (const auto& [key, val] : *v.as_table()) {
    if (!key.is_string()) continue;
    if (val.is_table()) {
      const Value eval = val.as_table()->get(Value(kDynEvalKey));
      if (eval.is_object()) {
        DynamicProperty dp;
        dp.eval = eval.as_object();
        dp.extra = val.as_table()->get(Value(kDynExtraKey));
        props.emplace(key.as_string(), OfferedProperty(std::move(dp)));
        continue;
      }
    }
    props.emplace(key.as_string(), OfferedProperty(val));
  }
  return props;
}

Value Trader::offer_info_to_value(const OfferInfo& info) {
  auto t = Table::make();
  t->set(Value("id"), Value(info.offer_id));
  t->set(Value("type"), Value(info.service_type));
  t->set(Value("provider"), Value(info.provider));
  auto props = Table::make();
  for (const auto& [name, value] : info.properties) props->set(Value(name), value);
  t->set(Value("properties"), Value(std::move(props)));
  return Value(std::move(t));
}

OfferInfo Trader::offer_info_from_value(const Value& v) {
  OfferInfo info;
  const Table& t = *v.as_table();
  info.offer_id = t.get(Value("id")).as_string();
  info.service_type = t.get(Value("type")).as_string();
  info.provider = t.get(Value("provider")).as_object();
  const Value props = t.get(Value("properties"));
  if (props.is_table()) {
    for (const auto& [key, val] : *props.as_table()) {
      if (key.is_string()) info.properties[key.as_string()] = val;
    }
  }
  return info;
}

Value Trader::policies_to_value(const LookupPolicies& p) {
  auto t = Table::make();
  t->set(Value("search_card"), Value(static_cast<double>(p.search_card)));
  t->set(Value("return_card"), Value(static_cast<double>(p.return_card)));
  t->set(Value("use_dynamic_properties"), Value(p.use_dynamic_properties));
  t->set(Value("exact_type_match"), Value(p.exact_type_match));
  t->set(Value("hop_count"), Value(static_cast<double>(p.hop_count)));
  return Value(std::move(t));
}

LookupPolicies Trader::policies_from_value(const Value& v) {
  LookupPolicies p;
  if (!v.is_table()) return p;
  const Table& t = *v.as_table();
  if (const Value x = t.get(Value("search_card")); x.is_number()) {
    p.search_card = policy_count<size_t>(x, "search_card");
  }
  if (const Value x = t.get(Value("return_card")); x.is_number()) {
    p.return_card = policy_count<size_t>(x, "return_card");
  }
  if (const Value x = t.get(Value("use_dynamic_properties")); x.is_bool()) {
    p.use_dynamic_properties = x.as_bool();
  }
  if (const Value x = t.get(Value("exact_type_match")); x.is_bool()) {
    p.exact_type_match = x.as_bool();
  }
  if (const Value x = t.get(Value("hop_count")); x.is_number()) {
    p.hop_count = policy_count<int>(x, "hop_count");
  }
  return p;
}

// ---- construction -----------------------------------------------------------

Trader::Trader(orb::OrbPtr orb, Config config)
    : orb_(std::move(orb)), config_(std::move(config)), rng_(config_.rng_seed) {
  clock_ = config_.clock ? config_.clock : std::make_shared<RealClock>();
  register_servants();
}

Trader::~Trader() {
  if (!orb_) return;
  orb_->unregister_servant(lookup_ref_.object_id);
  orb_->unregister_servant(register_ref_.object_id);
  orb_->unregister_servant(repository_ref_.object_id);
}

void Trader::register_servants() {
  using orb::FunctionServant;

  auto lookup = FunctionServant::make("TraderLookup");
  lookup->on("query", [this](const ValueList& args) -> Value {
    const std::string type = args.at(0).as_string();
    const std::string constraint = args.size() > 1 && args[1].is_string()
                                       ? args[1].as_string()
                                       : std::string();
    const std::string preference = args.size() > 2 && args[2].is_string()
                                       ? args[2].as_string()
                                       : std::string();
    const std::vector<std::string> desired =
        args.size() > 3 ? string_list_from_value(args[3]) : std::vector<std::string>{};
    const LookupPolicies policies =
        args.size() > 4 ? policies_from_value(args[4]) : LookupPolicies{};
    auto results = query(type, constraint, preference, desired, policies);
    auto out = Table::make();
    for (const OfferInfo& info : results) out->append(offer_info_to_value(info));
    return Value(std::move(out));
  });
  lookup_ref_ = orb_->register_servant(lookup, config_.name + "/lookup");

  auto reg = FunctionServant::make("TraderRegister");
  reg->on("export", [this](const ValueList& args) -> Value {
    const double lease = args.size() > 3 && args[3].is_number() ? args[3].as_number() : 0;
    return Value(export_offer(args.at(0).as_string(), args.at(1).as_object(),
                              property_map_from_value(args.at(2)), lease));
  });
  reg->on("refresh", [this](const ValueList& args) -> Value {
    refresh(args.at(0).as_string(), args.at(1).as_number());
    return {};
  });
  reg->on("withdraw", [this](const ValueList& args) -> Value {
    withdraw(args.at(0).as_string());
    return {};
  });
  reg->on("modify", [this](const ValueList& args) -> Value {
    modify(args.at(0).as_string(), property_map_from_value(args.at(1)));
    return {};
  });
  reg->on("describe", [this](const ValueList& args) -> Value {
    const ServiceOffer offer = describe(args.at(0).as_string());
    auto t = Table::make();
    t->set(Value("id"), Value(offer.id));
    t->set(Value("type"), Value(offer.service_type));
    t->set(Value("provider"), Value(offer.provider));
    t->set(Value("properties"), property_map_to_value(offer.properties));
    return Value(std::move(t));
  });
  reg->on("withdraw_provider", [this](const ValueList& args) -> Value {
    return Value(static_cast<double>(withdraw_provider(args.at(0).as_object())));
  });
  register_ref_ = orb_->register_servant(reg, config_.name + "/register");

  auto repo = FunctionServant::make("TraderRepository");
  repo->on("addType", [this](const ValueList& args) -> Value {
    ServiceTypeDef def;
    def.name = args.at(0).as_string();
    def.interface = args.at(1).as_string();
    if (args.size() > 2 && args[2].is_table()) {
      const Table& props = *args[2].as_table();
      for (int64_t i = 1; i <= props.length(); ++i) {
        const Table& p = *props.geti(i).as_table();
        PropertyDef pd;
        pd.name = p.get(Value("name")).as_string();
        if (const Value t = p.get(Value("type")); t.is_string()) pd.type = t.as_string();
        if (const Value m = p.get(Value("mode")); m.is_string()) {
          const std::string& mode = m.as_string();
          if (mode == "mandatory") {
            pd.mode = PropertyDef::Mode::Mandatory;
          } else if (mode == "readonly") {
            pd.mode = PropertyDef::Mode::Readonly;
          } else if (mode == "mandatory_readonly") {
            pd.mode = PropertyDef::Mode::MandatoryReadonly;
          }
        }
        def.properties.push_back(std::move(pd));
      }
    }
    if (args.size() > 3) def.supertypes = string_list_from_value(args[3]);
    types_.add(std::move(def));
    return {};
  });
  repo->on("listTypes", [this](const ValueList&) -> Value {
    return string_list_to_value(types_.list());
  });
  repo->on("hasType", [this](const ValueList& args) -> Value {
    return Value(types_.has(args.at(0).as_string()));
  });
  repository_ref_ = orb_->register_servant(repo, config_.name + "/repository");
}

// ---- Register ----------------------------------------------------------------

void Trader::validate_offer(const std::string& service_type, const ObjectRef& provider,
                            const PropertyMap& properties) const {
  const auto type = types_.find(service_type);
  if (!type) throw UnknownServiceType("no such service type: " + service_type);
  if (type->masked) throw TradingError("service type is masked: " + service_type);
  if (provider.empty()) throw TradingError("offer provider reference is empty");

  // Interface conformance: only enforceable when both sides are declared.
  if (!type->interface.empty() && !provider.interface.empty() &&
      orb_->interfaces().has(type->interface) && orb_->interfaces().has(provider.interface)) {
    if (!orb_->interfaces().is_a(provider.interface, type->interface)) {
      throw PropertyMismatch("provider implements '" + provider.interface +
                             "' which is not a '" + type->interface + "'");
    }
  }

  for (const PropertyDef& def : types_.effective_properties(service_type)) {
    const auto it = properties.find(def.name);
    if (it == properties.end()) {
      if (def.mandatory()) {
        throw PropertyMismatch("missing mandatory property '" + def.name + "'");
      }
      continue;
    }
    if (!it->second.is_dynamic() &&
        !ServiceTypeRepository::value_matches_type(it->second.static_value(), def.type)) {
      throw PropertyMismatch("property '" + def.name + "' must be " + def.type + ", got " +
                             it->second.static_value().type_name());
    }
  }
}

std::string Trader::export_offer(const std::string& service_type, const ObjectRef& provider,
                                 PropertyMap properties, double lease_seconds) {
  validate_offer(service_type, provider, properties);
  auto offer = std::make_shared<ServiceOffer>();
  offer->service_type = service_type;
  offer->provider = provider;
  offer->properties = std::move(properties);
  std::scoped_lock lock(mu_);
  offer->id = config_.name + "-offer-" + std::to_string(next_offer_++);
  offer->sequence = sequence_++;
  offer->expires_at = lease_seconds > 0 ? clock_->now() + lease_seconds : 0;
  const std::string id = offer->id;
  by_type_[service_type].push_back(offer);  // the newest sequence goes last
  offers_.emplace(id, std::move(offer));
  log_debug("trader ", config_.name, ": exported ", id, " type=", service_type);
  return id;
}

ServiceOffer& Trader::writable_locked(std::map<std::string, OfferPtr>::iterator it) {
  if (it->second.use_count() > 2) {  // a query is reading it: copy on write
    auto copy = std::make_shared<ServiceOffer>(*it->second);
    *slot_of(by_type_.at(copy->service_type), *copy) = copy;
    it->second = std::move(copy);
  }
  // Every offer is created non-const (make_shared<ServiceOffer>).
  return const_cast<ServiceOffer&>(*it->second);
}

void Trader::erase_locked(std::map<std::string, OfferPtr>::iterator it) {
  const auto list = by_type_.find(it->second->service_type);
  list->second.erase(slot_of(list->second, *it->second));
  if (list->second.empty()) by_type_.erase(list);
  offers_.erase(it);
}

size_t Trader::erase_if_locked(const std::function<bool(const ServiceOffer&)>& doomed) {
  size_t removed = 0;
  for (auto list = by_type_.begin(); list != by_type_.end();) {
    removed += std::erase_if(list->second, [&](const OfferPtr& offer) {
      if (!doomed(*offer)) return false;
      offers_.erase(offer->id);
      return true;
    });
    list = list->second.empty() ? by_type_.erase(list) : std::next(list);
  }
  return removed;
}

void Trader::withdraw(const std::string& offer_id) {
  std::scoped_lock lock(mu_);
  const auto it = offers_.find(offer_id);
  if (it == offers_.end()) throw UnknownOffer("no such offer: " + offer_id);
  erase_locked(it);
}

void Trader::refresh(const std::string& offer_id, double lease_seconds) {
  std::scoped_lock lock(mu_);
  const auto it = offers_.find(offer_id);
  const double now = clock_->now();
  if (it == offers_.end() || expired(*it->second, now)) {
    if (it != offers_.end()) erase_locked(it);
    throw UnknownOffer("no such live offer: " + offer_id);
  }
  writable_locked(it).expires_at = lease_seconds > 0 ? now + lease_seconds : 0;
}

size_t Trader::purge_expired() {
  std::scoped_lock lock(mu_);
  const double now = clock_->now();
  return erase_if_locked([now](const ServiceOffer& offer) { return expired(offer, now); });
}

size_t Trader::withdraw_provider(const ObjectRef& provider) {
  std::scoped_lock lock(mu_);
  return erase_if_locked(
      [&provider](const ServiceOffer& offer) { return offer.provider == provider; });
}

void Trader::modify(const std::string& offer_id, const PropertyMap& changes) {
  std::scoped_lock lock(mu_);
  const auto it = offers_.find(offer_id);
  if (it == offers_.end()) throw UnknownOffer("no such offer: " + offer_id);
  const ServiceOffer& current = *it->second;
  const auto defs = types_.effective_properties(current.service_type);
  for (const auto& [name, prop] : changes) {
    const auto def = std::find_if(defs.begin(), defs.end(),
                                  [&](const PropertyDef& d) { return d.name == name; });
    if (def != defs.end()) {
      if (def->readonly() && current.properties.count(name) != 0) {
        throw PropertyMismatch("property '" + name + "' is readonly");
      }
      if (!prop.is_dynamic() &&
          !ServiceTypeRepository::value_matches_type(prop.static_value(), def->type)) {
        throw PropertyMismatch("property '" + name + "' must be " + def->type);
      }
    }
  }
  ServiceOffer& offer = writable_locked(it);
  for (const auto& [name, prop] : changes) offer.properties[name] = prop;
}

ServiceOffer Trader::describe(const std::string& offer_id) const {
  std::scoped_lock lock(mu_);
  const auto it = offers_.find(offer_id);
  if (it == offers_.end()) throw UnknownOffer("no such offer: " + offer_id);
  return *it->second;
}

std::vector<std::string> Trader::list_offers() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(offers_.size());
  for (const auto& [id, offer] : offers_) ids.push_back(id);
  return ids;
}

size_t Trader::offer_count() const {
  std::scoped_lock lock(mu_);
  return offers_.size();
}

uint64_t Trader::dynamic_evals() const { return dynamic_evals_.load(); }

// ---- Lookup -------------------------------------------------------------

Value Trader::resolve_property(const ServiceOffer& offer, const std::string& name,
                               bool use_dynamic, std::map<std::string, Value>& cache) const {
  const auto it = offer.properties.find(name);
  if (it == offer.properties.end()) return {};
  if (!it->second.is_dynamic()) return it->second.static_value();
  if (!use_dynamic) return {};
  if (const auto cached = cache.find(name); cached != cache.end()) return cached->second;
  try {
    const DynamicProperty& dp = it->second.dynamic();
    Value v = orb_->invoke(dp.eval, "evalDP", {Value(name), dp.extra});
    ++dynamic_evals_;
    cache[name] = v;
    return v;
  } catch (const Error& e) {
    log_debug("dynamic property '", name, "' of ", offer.id, " failed: ", e.what());
    cache[name] = Value();
    return {};
  }
}

TraderAdminSettings Trader::admin() const {
  std::scoped_lock lock(mu_);
  return admin_;
}

void Trader::set_admin(const TraderAdminSettings& settings) {
  std::scoped_lock lock(mu_);
  admin_ = settings;
}

std::vector<OfferInfo> Trader::query(const std::string& service_type,
                                     const std::string& constraint,
                                     const std::string& preference,
                                     const std::vector<std::string>& desired,
                                     const LookupPolicies& requested_policies) {
  if (!types_.has(service_type)) {
    throw UnknownServiceType("no such service type: " + service_type);
  }
  // Clamp importer policies against the Admin limits.
  LookupPolicies policies = requested_policies;
  {
    std::scoped_lock lock(mu_);
    policies.search_card = std::min(policies.search_card, admin_.max_search_card);
    policies.return_card = std::min(policies.return_card, admin_.max_return_card);
    policies.hop_count = std::min(policies.hop_count, admin_.max_hop_count);
    if (!admin_.supports_dynamic_properties) policies.use_dynamic_properties = false;
  }
  const Constraint parsed_constraint = Constraint::parse(constraint);
  const Preference parsed_preference = Preference::parse(preference);

  std::vector<OfferInfo> results =
      query_local(service_type, parsed_constraint, parsed_preference, desired, policies);

  if (policies.hop_count > 0) {
    auto remote = query_links(service_type, constraint, preference, desired, policies);
    for (auto& info : remote) {
      const bool duplicate = std::any_of(results.begin(), results.end(), [&](const OfferInfo& r) {
        return r.offer_id == info.offer_id && r.provider == info.provider;
      });
      if (!duplicate) results.push_back(std::move(info));
    }
  }
  if (results.size() > policies.return_card) results.resize(policies.return_card);
  return results;
}

Trader::Snapshot::~Snapshot() {
  std::scoped_lock lock(trader.mu_);
  offers.clear();
}

std::vector<OfferPtr> Trader::live_candidates(const std::string& service_type,
                                              const LookupPolicies& policies) const {
  // Under mu_ throughout: the pointers cut below are released under it too.
  std::scoped_lock lock(mu_);
  const double now = clock_->now();
  std::vector<OfferPtr> out;
  size_t types = 0;
  for (const auto& [type, offers] : by_type_) {
    // One subtype test per indexed type, not per offer.
    if (policies.exact_type_match ? type != service_type
                                  : !types_.is_subtype(type, service_type)) {
      continue;
    }
    ++types;
    for (const OfferPtr& offer : offers) {
      if (!expired(*offer, now)) out.push_back(offer);
    }
  }
  // Each type's list is in registration order; subtypes interleave.
  if (types > 1) {
    std::sort(out.begin(), out.end(),
              [](const OfferPtr& a, const OfferPtr& b) { return a->sequence < b->sequence; });
  }
  if (out.size() > policies.search_card) out.resize(policies.search_card);
  return out;
}

std::vector<OfferInfo> Trader::query_local(const std::string& service_type,
                                           const Constraint& constraint,
                                           const Preference& preference,
                                           const std::vector<std::string>& desired,
                                           const LookupPolicies& policies) {
  // Snapshot candidate pointers under the lock; evaluate without it (dynamic
  // properties call back into servants — CP.22).
  const Snapshot candidates{*this, live_candidates(service_type, policies)};

  struct Matched {
    const ServiceOffer* offer;
    std::map<std::string, Value> cache;  // resolved dynamic properties
    std::optional<double> score;         // min/max preference key
    bool with_match = false;
  };
  // Registration order is the final order under "first", so evaluation
  // stops once return_card offers have matched.
  const size_t enough = preference.kind() == Preference::Kind::First
                            ? policies.return_card
                            : std::numeric_limits<size_t>::max();
  std::vector<Matched> matched;
  for (const OfferPtr& candidate : candidates.offers) {
    if (matched.size() >= enough) break;
    const ServiceOffer& offer = *candidate;
    Matched m{&offer, {}, std::nullopt, false};
    PropertyLookup lookup = [&](const std::string& name) -> std::optional<Value> {
      Value v = resolve_property(offer, name, policies.use_dynamic_properties, m.cache);
      if (v.is_nil()) return std::nullopt;
      return v;
    };
    if (!constraint.matches(lookup)) continue;
    switch (preference.kind()) {
      case Preference::Kind::Min:
      case Preference::Kind::Max:
        m.score = preference.expr().evaluate_numeric(lookup);
        break;
      case Preference::Kind::With:
        m.with_match = preference.expr().matches(lookup);
        break;
      default:
        break;
    }
    matched.push_back(std::move(m));
  }

  // Order per preference. Offers whose preference expression could not be
  // evaluated follow the ordered ones (OMG semantics); stable sort keeps
  // registration order within equal keys.
  switch (preference.kind()) {
    case Preference::Kind::Min:
      std::stable_sort(matched.begin(), matched.end(), [](const Matched& a, const Matched& b) {
        if (a.score && b.score) return *a.score < *b.score;
        return a.score.has_value() && !b.score.has_value();
      });
      break;
    case Preference::Kind::Max:
      std::stable_sort(matched.begin(), matched.end(), [](const Matched& a, const Matched& b) {
        if (a.score && b.score) return *a.score > *b.score;
        return a.score.has_value() && !b.score.has_value();
      });
      break;
    case Preference::Kind::With:
      std::stable_sort(matched.begin(), matched.end(), [](const Matched& a, const Matched& b) {
        return a.with_match && !b.with_match;
      });
      break;
    case Preference::Kind::Random: {
      std::scoped_lock lock(mu_);
      std::shuffle(matched.begin(), matched.end(), rng_);
      break;
    }
    case Preference::Kind::First:
      break;
  }

  // Only the offers that will be returned get their properties resolved.
  if (matched.size() > policies.return_card) matched.resize(policies.return_card);
  std::vector<OfferInfo> results;
  results.reserve(matched.size());
  for (Matched& m : matched) {
    OfferInfo info;
    info.offer_id = m.offer->id;
    info.service_type = m.offer->service_type;
    info.provider = m.offer->provider;
    const std::vector<std::string>* wanted = &desired;
    std::vector<std::string> all_names;
    if (desired.empty()) {
      for (const auto& [name, prop] : m.offer->properties) all_names.push_back(name);
      wanted = &all_names;
    }
    for (const std::string& name : *wanted) {
      Value v = resolve_property(*m.offer, name, policies.use_dynamic_properties, m.cache);
      if (!v.is_nil()) info.properties[name] = std::move(v);
    }
    results.push_back(std::move(info));
  }
  return results;
}

std::vector<OfferInfo> Trader::query_links(const std::string& service_type,
                                           const std::string& constraint,
                                           const std::string& preference,
                                           const std::vector<std::string>& desired,
                                           const LookupPolicies& policies) {
  std::map<std::string, ObjectRef> links;
  {
    std::scoped_lock lock(mu_);
    links = links_;
  }
  std::vector<OfferInfo> out;
  LookupPolicies next = policies;
  next.hop_count = policies.hop_count - 1;
  for (const auto& [name, lookup_ref] : links) {
    try {
      const Value reply = orb_->invoke(
          lookup_ref, "query",
          {Value(service_type), Value(constraint), Value(preference),
           string_list_to_value(desired), policies_to_value(next)});
      if (!reply.is_table()) continue;
      const Table& t = *reply.as_table();
      for (int64_t i = 1; i <= t.length(); ++i) {
        out.push_back(offer_info_from_value(t.geti(i)));
      }
    } catch (const Error& e) {
      log_warn("federated query via link '", name, "' failed: ", e.what());
    }
  }
  return out;
}

void Trader::add_link(const std::string& link_name, const ObjectRef& remote_lookup) {
  std::scoped_lock lock(mu_);
  links_[link_name] = remote_lookup;
}

void Trader::remove_link(const std::string& link_name) {
  std::scoped_lock lock(mu_);
  links_.erase(link_name);
}

std::vector<std::string> Trader::links() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(links_.size());
  for (const auto& [name, ref] : links_) names.push_back(name);
  return names;
}

// ---- TraderClient -----------------------------------------------------------

TraderClient::TraderClient(orb::OrbPtr orb, ObjectRef lookup, ObjectRef register_ref)
    : orb_(std::move(orb)), lookup_(std::move(lookup)), register_(std::move(register_ref)) {}

std::vector<OfferInfo> TraderClient::query(const std::string& service_type,
                                           const std::string& constraint,
                                           const std::string& preference,
                                           const std::vector<std::string>& desired,
                                           const LookupPolicies& policies) {
  const Value reply = orb_->invoke(
      lookup_, "query",
      {Value(service_type), Value(constraint), Value(preference),
       string_list_to_value(desired), Trader::policies_to_value(policies)});
  std::vector<OfferInfo> out;
  if (!reply.is_table()) return out;
  const Table& t = *reply.as_table();
  for (int64_t i = 1; i <= t.length(); ++i) {
    out.push_back(Trader::offer_info_from_value(t.geti(i)));
  }
  return out;
}

std::string TraderClient::export_offer(const std::string& service_type,
                                       const ObjectRef& provider,
                                       const PropertyMap& properties, double lease_seconds) {
  if (register_.empty()) throw TradingError("TraderClient has no Register reference");
  return orb_
      ->invoke(register_, "export",
               {Value(service_type), Value(provider), Trader::property_map_to_value(properties),
                Value(lease_seconds)})
      .as_string();
}

void TraderClient::refresh(const std::string& offer_id, double lease_seconds) {
  if (register_.empty()) throw TradingError("TraderClient has no Register reference");
  orb_->invoke(register_, "refresh", {Value(offer_id), Value(lease_seconds)});
}

void TraderClient::withdraw(const std::string& offer_id) {
  if (register_.empty()) throw TradingError("TraderClient has no Register reference");
  orb_->invoke(register_, "withdraw", {Value(offer_id)});
}

void TraderClient::modify(const std::string& offer_id, const PropertyMap& changes) {
  if (register_.empty()) throw TradingError("TraderClient has no Register reference");
  orb_->invoke(register_, "modify", {Value(offer_id), Trader::property_map_to_value(changes)});
}

}  // namespace adapt::trading
