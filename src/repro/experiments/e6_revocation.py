"""E6 — Revocation-list management (paper Section VIII-G2).

The paper proposes two mechanisms to keep the border routers'
``revoked_ids`` list small: (1) prune entries whose EphIDs have expired
("the expired EphIDs can be removed"), and (2) revoke the HID of a host
that accumulates too many revocations.  This experiment drives a
revocation churn workload and measures list growth with and without
pruning on :class:`~repro.state.ColumnarRevocationList`, the list the
border routers hold, plus the HID-escalation behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.revocation import RevocationPolicy
from ..crypto.rng import DeterministicRng
from ..metrics import format_table
from ..state import ColumnarRevocationList
from .common import print_header


@dataclass
class E6Result:
    times: list[float]
    pruned_sizes: list[int]
    unpruned_sizes: list[int]
    hids_revoked: int
    total_revocations: int

    @property
    def pruning_wins(self) -> bool:
        """Pruned list stays bounded while the unpruned list grows ~linearly."""
        return (
            self.pruned_sizes[-1] < self.unpruned_sizes[-1] / 4
            and max(self.pruned_sizes) < self.unpruned_sizes[-1]
        )


def run(
    *,
    duration: float = 7200.0,
    revocations_per_second: float = 2.0,
    ephid_lifetime: float = 900.0,
    threshold: int = 32,
    hosts: int = 64,
    sample_every: float = 300.0,
    quiet: bool = False,
) -> E6Result:
    rng = DeterministicRng(66)
    pruned = ColumnarRevocationList(auto_prune=True)
    unpruned = ColumnarRevocationList(auto_prune=False)
    policy = RevocationPolicy(threshold)

    times: list[float] = []
    pruned_sizes: list[int] = []
    unpruned_sizes: list[int] = []

    total = 0
    now = 0.0
    next_sample = 0.0
    interval = 1.0 / revocations_per_second
    while now < duration:
        # A shutoff lands against a random host's EphID.
        ephid = rng.read(16)
        exp_time = now + ephid_lifetime * (0.25 + rng.uniform())
        pruned.add(ephid, exp_time)
        pruned.maybe_prune(now)
        unpruned.add(ephid, exp_time)
        policy.record(rng.randint(hosts))
        total += 1
        if now >= next_sample:
            times.append(now)
            pruned_sizes.append(len(pruned))
            unpruned_sizes.append(len(unpruned))
            next_sample += sample_every
        now += interval

    result = E6Result(
        times=times,
        pruned_sizes=pruned_sizes,
        unpruned_sizes=unpruned_sizes,
        hids_revoked=len(policy.hids_revoked),
        total_revocations=total,
    )
    if not quiet:
        report(result)
    return result


def report(result: E6Result) -> None:
    print_header("E6: revocation-list management", "paper Section VIII-G2")
    step = max(1, len(result.times) // 12)
    rows = [
        (f"{t:,.0f}", p, u)
        for t, p, u in zip(
            result.times[::step], result.pruned_sizes[::step], result.unpruned_sizes[::step]
        )
    ]
    print(format_table(("time (s)", "pruned list", "unpruned list"), rows))
    print(
        f"\n{result.total_revocations:,} revocations processed; "
        f"{result.hids_revoked} HIDs revoked by the threshold policy"
    )
    verdict = "HOLDS" if result.pruning_wins else "FAILS"
    print(
        "shape claim (expiry pruning keeps the border-router list bounded "
        f"while the naive list grows without bound): {verdict}"
    )


if __name__ == "__main__":
    run()
