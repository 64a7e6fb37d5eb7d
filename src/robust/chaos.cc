#include "src/robust/chaos.h"

#include <cstdint>
#include <cstdlib>

#include "src/lang/decimal.h"

namespace wasabi {

std::string ChaosHostFault::What() const {
  return "chaos host fault at identity " + std::to_string(identity) + " attempt " +
         std::to_string(attempt);
}

namespace {

// splitmix64 finalizer: a strong 64-bit mix, cheap and dependency-free.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t ChaosDraw(const ChaosConfig& config, uint64_t identity, int attempt) {
  uint64_t h = Mix64(config.seed ^ Mix64(identity));
  if (config.transient) {
    h = Mix64(h ^ static_cast<uint64_t>(attempt));
  }
  return h;
}

}  // namespace

bool ChaosShouldFault(const ChaosConfig& config, uint64_t identity, int attempt) {
  if (!config.enabled || config.rate <= 0.0) {
    return false;
  }
  if (config.rate >= 1.0) {
    return true;
  }
  // Map the draw to [0, 1) with 53 bits of the hash; compare against the rate.
  uint64_t h = ChaosDraw(config, identity, attempt);
  double unit = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return unit < config.rate;
}

void ChaosMaybeFault(const ChaosConfig& config, uint64_t identity, int attempt) {
  if (!ChaosShouldFault(config, identity, attempt)) {
    return;
  }
  if (config.budget_fraction > 0.0) {
    // A second independent draw decides the presentation of the fault.
    uint64_t h = Mix64(ChaosDraw(config, identity, attempt) ^ 0xc2b2ae3d27d4eb4fULL);
    double unit = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    if (unit < config.budget_fraction) {
      static const AbortReason kFlavors[] = {AbortReason::kStepBudget,
                                             AbortReason::kVirtualTimeBudget,
                                             AbortReason::kStackOverflow};
      throw ChaosBudgetFault{kFlavors[h % 3], identity};
    }
  }
  throw ChaosHostFault{identity, attempt};
}

bool ChaosDegradedEnvironment(const ChaosConfig& config, uint64_t identity) {
  if (!config.enabled || config.env_rate <= 0.0) {
    return false;
  }
  if (config.env_rate >= 1.0) {
    return true;
  }
  // Independent of the fault draw: xor-ing a distinct constant into the seeded
  // identity mix decorrelates "this run fails" from "this run runs degraded".
  uint64_t h = Mix64(config.seed ^ Mix64(identity) ^ 0x9ae16a3b2f90404fULL);
  double unit = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return unit < config.env_rate;
}

namespace {

bool ParseUnitRate(const std::string& text, double* out) {
  char* end = nullptr;
  double rate = std::strtod(text.c_str(), &end);
  if (text.empty() || end == text.c_str() || *end != '\0' || rate < 0.0 || rate > 1.0) {
    return false;
  }
  *out = rate;
  return true;
}

}  // namespace

bool ParseChaosSpec(const std::string& spec, ChaosConfig* config, std::string* error) {
  size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    if (error != nullptr) {
      *error = "expected SEED:RATE[:ENV_RATE]";
    }
    return false;
  }
  const std::string seed_text = spec.substr(0, colon);
  std::string rate_text = spec.substr(colon + 1);
  // Optional third field: the degraded-environment rate.
  std::string env_text;
  bool has_env = false;
  if (size_t second = rate_text.find(':'); second != std::string::npos) {
    env_text = rate_text.substr(second + 1);
    rate_text = rate_text.substr(0, second);
    has_env = true;
  }
  uint64_t seed = 0;
  if (!mj::ParseDecimal(seed_text, uint64_t{0}, UINT64_MAX, &seed)) {
    if (error != nullptr) {
      *error = "seed must be a non-negative integer";
    }
    return false;
  }
  double rate = 0.0;
  if (!ParseUnitRate(rate_text, &rate)) {
    if (error != nullptr) {
      *error = "rate must be a number in [0, 1]";
    }
    return false;
  }
  double env_rate = 0.0;
  if (has_env && !ParseUnitRate(env_text, &env_rate)) {
    if (error != nullptr) {
      *error = "env rate must be a number in [0, 1]";
    }
    return false;
  }
  config->enabled = true;
  config->seed = seed;
  config->rate = rate;
  config->env_rate = env_rate;
  return true;
}

}  // namespace wasabi
