#include "runtime/admission.h"

#include "pgql/normalize.h"
#include "rpq/cache_key.h"

namespace rpqd {

Admission admit(const DistributedEngine& engine, ResultCache* cache,
                std::string_view pgql) {
  Admission out;
  out.plan = engine.compile(pgql, &out.profile);
  out.snapshot = engine.current_snapshot();
  if (cache == nullptr) return out;

  // The probe order is the coherence handshake: compile first (parse
  // errors never touch the cache), then pin, then probe with the pinned
  // epoch — acquire() aborts loudly if the pin is newer than the cache's
  // last invalidation (a mutation that skipped it).
  out.cache = cache;
  out.cache_text = pgql::normalize_query(pgql).text;
  out.cache_profile = out.profile || engine.config_snapshot().profile;
  ResultCache::Lookup look =
      cache->acquire(out.cache_text, out.cache_profile, out.snapshot->epoch());
  if (look.role == ResultCache::Role::kBypass) {
    out.snapshot = engine.current_snapshot();
    look = cache->acquire(out.cache_text, out.cache_profile,
                          out.snapshot->epoch());
  }
  out.role = look.role;
  out.hit = std::move(look.result);
  out.flight = std::move(look.flight);
  if (out.role == ResultCache::Role::kLeader) {
    out.scope = result_cache_scope(*out.plan);
  }
  return out;
}

void Admission::complete(QueryResult& result) {
  if (role == ResultCache::Role::kBypass) {
    result.stats.result_cache_bypassed = true;
  } else if (role == ResultCache::Role::kLeader && flight != nullptr) {
    // A rejected/cancelled leader publishes its aborted result:
    // followers share the leader's fate, the cache stores nothing.
    cache->complete(flight, cache_text, cache_profile, result, scope);
    flight.reset();
  }
}

void Admission::complete_error(std::exception_ptr error) {
  if (role == ResultCache::Role::kLeader && flight != nullptr) {
    cache->complete_error(flight, cache_text, cache_profile, std::move(error));
    flight.reset();
  }
}

}  // namespace rpqd
