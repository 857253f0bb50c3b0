"""Multi-tenant privacy-budget accounts with pure-DP composition.

A :class:`BudgetStore` tracks composed ε spend per ``(tenant,
principal)`` account across auctions — the durable, shared counterpart
of the per-run :class:`~repro.obs.PrivacyLedger` audit trail.  Tenants
are campaigns or platform customers; principals are the data subjects
(worker populations, regions) whose bids the spend is measured against.

Accounts compose through :class:`~repro.privacy.composition.Composition`,
the pure-DP core the accountant and the per-run ledger share (sequential
charges add in charge order, parallel charges cost only their maximum).
The store is the one place a budget limit is enforced on mechanism
draws: the ledger forwards every recorded draw here.

Charges tagged ``degraded=True`` — the admission controller's fallback
draws after a tenant's budget ran out — are tracked separately and are
exempt from enforcement: an audit trail must show the overspend, but the
degraded path must never raise (that is its entire purpose).

Backends:

* :class:`InMemoryBudgetStore` — sharded dictionaries with per-shard
  locks, the throughput backend (≥ 10^5 charges/s; see the
  ``ledger_throughput`` bench scenario).
* :class:`~repro.privacy.budget.journal.JsonlBudgetStore` — the
  append-only JSON-lines backend layered on the in-memory one, so
  budget state survives crash/resume bit-identically.
* :data:`NULL_BUDGET_STORE` — the default ambient store: unlimited,
  keeps nothing, and makes every charge a no-op, so code paths that
  never opted into budget management are byte-for-byte unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.exceptions import BudgetExceededError
from repro.privacy.composition import Composition
from repro.tolerances import EPSILON_TOL
from repro.utils import validation

__all__ = [
    "BudgetAccount",
    "BudgetStore",
    "NullBudgetStore",
    "NULL_BUDGET_STORE",
    "InMemoryBudgetStore",
]

#: Absolute tolerance on budget-limit comparisons: the one ε-overspend
#: slack of :mod:`repro.tolerances`, under the name admission imports.
LIMIT_ATOL = EPSILON_TOL


@dataclass
class BudgetAccount:
    """Composed ε state of one ``(tenant, principal)`` account.

    Attributes
    ----------
    tenant, principal:
        The account key.
    limit:
        Total ε budget for the account, or ``None`` for unlimited.
    enforced, degraded:
        Composition of the enforced charges since the last renewal, and
        of the degraded fallback draws (shown by the audit report, never
        enforced).
    n_charges, n_degraded:
        Charge counts (enforced / degraded) since the last renewal.
    n_renewals:
        How many times the account's budget has been renewed.
    epoch:
        Logical-clock epoch of the last renewal (0 before any renewal).
    """

    tenant: str
    principal: str
    limit: float | None = None
    enforced: Composition = field(default_factory=Composition, init=False)
    degraded: Composition = field(default_factory=Composition, init=False)
    n_charges: int = 0
    n_degraded: int = 0
    n_renewals: int = 0
    epoch: int = 0

    @property
    def sequential_epsilon(self) -> float:
        """Sum of ε over enforced sequential charges since the last renewal."""
        return self.enforced.sequential

    @property
    def parallel_epsilon(self) -> float:
        """Max ε over enforced parallel charges since the last renewal."""
        return self.enforced.parallel

    @property
    def degraded_epsilon(self) -> float:
        """Sequentially-composed ε of degraded fallback draws."""
        return self.degraded.total

    @property
    def spent(self) -> float:
        """Composed enforced ε: sequential sum + parallel max (pure DP)."""
        return self.enforced.total

    @property
    def remaining(self) -> float | None:
        """Remaining enforced budget, or ``None`` when unlimited."""
        if self.limit is None:
            return None
        return max(self.limit - self.spent, 0.0)

    def to_json_obj(self) -> dict:
        """The account as a plain dict (audit report / snapshots)."""
        return {
            "tenant": self.tenant,
            "principal": self.principal,
            "limit": self.limit,
            "sequential_epsilon": self.sequential_epsilon,
            "parallel_epsilon": self.parallel_epsilon,
            "degraded_epsilon": self.degraded_epsilon,
            "n_charges": self.n_charges,
            "n_degraded": self.n_degraded,
            "n_renewals": self.n_renewals,
            "epoch": self.epoch,
        }


class BudgetStore:
    """Interface of a multi-tenant privacy-budget store.

    Concrete stores implement :meth:`charge`, :meth:`renew`, and
    :meth:`accounts`; the query helpers (:meth:`spent`,
    :meth:`remaining`) are derived.  All library stores are safe for
    concurrent charging from multiple threads.
    """

    #: Whether this store actually records charges (the null store
    #: reports ``False`` so hot paths can skip work entirely).
    tracking: bool = True

    def charge(
        self,
        tenant: str,
        principal: str,
        *,
        mechanism: str,
        epsilon: float,
        sensitivity: float = 1.0,
        parallel: bool = False,
        degraded: bool = False,
    ) -> float:
        """Record one ε-consuming draw against an account.

        Returns the account's composed enforced ε after the charge.

        Raises
        ------
        BudgetExceededError
            When an enforced (non-degraded) charge pushes the account
            past its limit.  The charge is retained *before* raising —
            an audit trail must show the overspend.
        """
        raise NotImplementedError

    def renew(self, tenant: str, principal: str = "default", *, epoch: int | None = None) -> None:
        """Reset an account's enforced spend (a scheduled budget refresh)."""
        raise NotImplementedError

    def accounts(self) -> Iterator[BudgetAccount]:
        """Iterate every account, sorted by ``(tenant, principal)``."""
        raise NotImplementedError

    def account(self, tenant: str, principal: str = "default") -> BudgetAccount | None:
        """The account for ``(tenant, principal)``, or ``None`` if unknown."""
        for acct in self.accounts():
            if acct.tenant == tenant and acct.principal == principal:
                return acct
        return None

    def spent(self, tenant: str, principal: str = "default") -> float:
        """Composed enforced ε of one account (0 for unknown accounts)."""
        acct = self.account(tenant, principal)
        return 0.0 if acct is None else acct.spent

    def remaining(self, tenant: str, principal: str = "default") -> float | None:
        """Remaining enforced budget of one account (``None`` = unlimited)."""
        acct = self.account(tenant, principal)
        if acct is None:
            limit = self.limit_for(tenant, principal)
            return None if limit is None else limit
        return acct.remaining

    def limit_for(self, tenant: str, principal: str = "default") -> float | None:
        """The ε limit a fresh ``(tenant, principal)`` account would get."""
        return None


class NullBudgetStore(BudgetStore):
    """The default ambient store: unlimited, records nothing.

    Every query reports an untouched, unlimited account, so code that
    consults the ambient store without a configured budget behaves
    exactly as if the budget subsystem did not exist.
    """

    tracking = False

    def charge(self, tenant, principal, *, mechanism, epsilon, sensitivity=1.0,
               parallel=False, degraded=False) -> float:
        return 0.0

    def renew(self, tenant, principal="default", *, epoch=None) -> None:
        return None

    def accounts(self) -> Iterator[BudgetAccount]:
        return iter(())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullBudgetStore()"


#: Shared null store installed as the ambient default.
NULL_BUDGET_STORE = NullBudgetStore()


class InMemoryBudgetStore(BudgetStore):
    """Sharded in-memory budget store (the throughput backend).

    Parameters
    ----------
    limit:
        Default ε limit for every account (``None`` = unlimited).
    limits:
        Per-tenant overrides, ``{tenant: limit}``; a tenant mapped to
        ``None`` is explicitly unlimited.
    shards:
        Number of account shards.  Each shard is an independent dict
        behind its own lock, so concurrent charges to different accounts
        rarely contend.

    Examples
    --------
    >>> store = InMemoryBudgetStore(limit=1.0)
    >>> store.charge("acme", "workers", mechanism="dp-hsrc", epsilon=0.4)
    0.4
    >>> store.charge("acme", "workers", mechanism="dp-hsrc", epsilon=0.4)
    0.8
    >>> store.remaining("acme", "workers")
    0.19999999999999996
    """

    def __init__(
        self,
        limit: float | None = None,
        *,
        limits: Mapping[str, float | None] | None = None,
        shards: int = 16,
    ) -> None:
        if limit is not None:
            validation.require_positive(limit, "limit")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.default_limit = None if limit is None else float(limit)
        self.tenant_limits = dict(limits or {})
        self.n_shards = int(shards)
        self._shards: list[dict[tuple[str, str], BudgetAccount]] = [
            {} for _ in range(self.n_shards)
        ]
        self._locks = [threading.Lock() for _ in range(self.n_shards)]

    def limit_for(self, tenant: str, principal: str = "default") -> float | None:
        if tenant in self.tenant_limits:
            value = self.tenant_limits[tenant]
            return None if value is None else float(value)
        return self.default_limit

    def _shard(self, key: tuple[str, str]) -> int:
        return hash(key) % self.n_shards

    def _get_or_create(self, tenant: str, principal: str) -> tuple[BudgetAccount, threading.Lock]:
        key = (str(tenant), str(principal))
        index = self._shard(key)
        lock = self._locks[index]
        shard = self._shards[index]
        acct = shard.get(key)
        if acct is None:
            with lock:
                acct = shard.get(key)
                if acct is None:
                    acct = BudgetAccount(
                        tenant=key[0],
                        principal=key[1],
                        limit=self.limit_for(key[0], key[1]),
                    )
                    shard[key] = acct
        return acct, lock

    def charge(
        self,
        tenant: str,
        principal: str,
        *,
        mechanism: str,
        epsilon: float,
        sensitivity: float = 1.0,
        parallel: bool = False,
        degraded: bool = False,
    ) -> float:
        validation.require_positive(epsilon, "epsilon")
        acct, lock = self._get_or_create(tenant, principal)
        with lock:
            if degraded:
                acct.degraded.add(float(epsilon))
                acct.n_degraded += 1
                return acct.spent
            total = acct.enforced.add(float(epsilon), parallel)
            acct.n_charges += 1
            overspent = acct.enforced.exceeds(acct.limit)
        if overspent:
            raise BudgetExceededError(
                f"charging ε={epsilon:.6g} from {mechanism!r} pushes tenant "
                f"{tenant!r} (principal {principal!r}) to composed ε "
                f"{total:.6g}, past its budget {acct.limit:.6g} (charge retained "
                "in the account for audit)",
                tenant=str(tenant),
                principal=str(principal),
                mechanism=str(mechanism),
            )
        return total

    def renew(self, tenant: str, principal: str = "default", *, epoch: int | None = None) -> None:
        acct, lock = self._get_or_create(tenant, principal)
        with lock:
            acct.enforced = Composition()
            acct.n_charges = 0
            acct.n_renewals += 1
            if epoch is not None:
                acct.epoch = int(epoch)

    def accounts(self) -> Iterator[BudgetAccount]:
        everything = [acct for shard in self._shards for acct in shard.values()]
        everything.sort(key=lambda a: (a.tenant, a.principal))
        return iter(everything)

    def account(self, tenant: str, principal: str = "default") -> BudgetAccount | None:
        key = (str(tenant), str(principal))
        return self._shards[self._shard(key)].get(key)

    # -- merging / export ----------------------------------------------

    def snapshot(self) -> dict:
        """Picklable dump of every account (inverse of :meth:`merge_snapshot`)."""
        return {"accounts": [acct.to_json_obj() for acct in self.accounts()]}

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold another store's accounts into this one.

        Sequential and degraded ε add; parallel ε takes the max.  Shards
        that each hold *all* of an account's charges merge, in any order,
        to the serial totals bit for bit.  An account split across shards
        adds in another order and matches only up to rounding: 0.1 in one
        and 0.2, 0.3 in another merge to 0.6, not 0.6000000000000001.
        """
        for obj in snapshot.get("accounts", ()):
            acct, lock = self._get_or_create(obj["tenant"], obj["principal"])
            with lock:
                acct.enforced.add(float(obj["sequential_epsilon"]))
                acct.enforced.add(float(obj["parallel_epsilon"]), parallel=True)
                acct.degraded.add(float(obj["degraded_epsilon"]))
                acct.n_charges += int(obj["n_charges"])
                acct.n_degraded += int(obj["n_degraded"])
                acct.n_renewals += int(obj["n_renewals"])
                acct.epoch = max(acct.epoch, int(obj["epoch"]))

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InMemoryBudgetStore(accounts={len(self)}, "
            f"limit={self.default_limit}, shards={self.n_shards})"
        )
