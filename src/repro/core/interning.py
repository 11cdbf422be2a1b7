"""Fleet-scale profile interning.

A service with millions of registered users does not face millions of
distinct personalization problems: profiles cluster (defaults, templates,
learned-from-similar-behavior populations), and two users whose profiles
store the same preferences are *the same user* as far as the pipeline is
concerned — extraction, search, rewriting, and execution are all pure
functions of (query, profile content, statistics). :class:`ProfileInterner`
makes that sharing explicit: it maps every profile to a canonical
**fingerprint** of its content and keeps one representative per
fingerprint, so fleet-wide precomputation (see
:mod:`repro.workloads.compiler`) runs once per *distinct* profile instead
of once per user.

Exactness is the whole point, so the fingerprint is deliberately
conservative: the ordered tuple of ``(condition, doi)`` pairs **in the
profile's insertion order**. Order matters — the Preference Space
algorithm walks ``anchored_at`` lists in insertion order, so the
extracted ``P`` (and therefore every solution's ``pref_indices``) is a
function of that order. Equal fingerprints ⇒ identical extraction ⇒
bit-identical solves; the interner never unifies two profiles that any
downstream stage could distinguish. (Space-digest unification — the
stronger, parameter-level collapse — happens one layer down, in the
:class:`~repro.core.frontier_cache.FrontierCache` keying and the
compiler's frontier dedupe.)
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.preferences.profile import UserProfile

Fingerprint = Tuple


def profile_fingerprint(profile: UserProfile) -> Fingerprint:
    """The content identity of a profile, in insertion order.

    Conditions are frozen dataclasses (hash and compare by value), so
    the fingerprint is hashable, picklable, and process-independent.
    """
    return tuple((pref.condition, pref.doi) for pref in profile)


def _profile_nbytes(profile: UserProfile) -> int:
    """A coarse resident-size estimate of one profile's preference store
    (two dicts plus one condition/doi pair per preference)."""
    return 200 + 160 * len(profile)


class ProfileInterner:
    """Dedupe a fleet of profiles into canonical representatives.

    ``intern`` returns the canonical :class:`UserProfile` for the given
    profile's content — the first profile seen with that fingerprint.
    Telemetry mirrors the cache counter shape used across the system
    (hits/misses/...) so the interning report slots into the same
    dashboards; ``bytes_estimate`` is the memory the *canonical* set
    pins, ``bytes_saved_estimate`` what interning avoided pinning.
    """

    def __init__(self) -> None:
        self._canonical: Dict[Fingerprint, UserProfile] = {}
        self._population: Dict[Fingerprint, int] = {}
        self.hits = 0
        self.misses = 0
        self._bytes = 0
        self._bytes_saved = 0

    def __len__(self) -> int:
        return len(self._canonical)

    def intern(self, profile: UserProfile) -> UserProfile:
        """The canonical representative of ``profile``'s content."""
        fingerprint = profile_fingerprint(profile)
        canonical = self._canonical.get(fingerprint)
        if canonical is not None:
            self.hits += 1
            self._population[fingerprint] += 1
            self._bytes_saved += _profile_nbytes(profile)
            return canonical
        self.misses += 1
        self._canonical[fingerprint] = profile
        self._population[fingerprint] = 1
        self._bytes += _profile_nbytes(profile)
        return profile

    def canonical_profiles(self) -> List[UserProfile]:
        """The representatives, in first-seen order."""
        return list(self._canonical.values())

    @property
    def fleet_size(self) -> int:
        """How many profiles have been interned (with repetition)."""
        return self.hits + self.misses

    @property
    def compression(self) -> float:
        """Fleet-to-canonical ratio (1.0 = nothing shared)."""
        if not self._canonical:
            return 1.0
        return self.fleet_size / len(self._canonical)

    def counters(self) -> Dict[str, int]:
        """The shared cache-telemetry shape (an interner never evicts)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.hits + self.misses,
            "invalidations": 0,
            "evictions": 0,
            "entries": len(self._canonical),
            "bytes_estimate": self._bytes,
        }

    def report(self) -> Dict:
        """The interning telemetry block persisted into snapshots."""
        populations = sorted(self._population.values(), reverse=True)
        return {
            "fleet_size": self.fleet_size,
            "canonical_profiles": len(self._canonical),
            "compression": self.compression,
            "hit_rate": (self.hits / self.fleet_size) if self.fleet_size else 0.0,
            "largest_population": populations[0] if populations else 0,
            "bytes_estimate": self._bytes,
            "bytes_saved_estimate": self._bytes_saved,
        }
