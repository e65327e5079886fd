"""Reference kernels and drift-normalised timing.

The host's CPU speed drifts by up to 2x within a minute while the
process is never preempted (process time equals wall time), so a raw
wall-clock sample mostly measures the host.  Every timed sample is
therefore bracketed by a fixed, dcmesh-free reference kernel whose mix
of instructions matches the workload, and is reported as

    t_raw * K_nominal / K_adjacent

where K_adjacent is the mean of the kernel readings just before and
just after the sample and K_nominal is the kernel's time recorded once
on the reference host.  The result is still in seconds, at a nominal
CPU speed.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
from dataclasses import dataclass
from time import perf_counter

_MODP_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
_MODEXP_BASE = int.from_bytes(hashlib.sha256(b"bench/modexp").digest() * 8, "big") % _MODP_2048
_MODEXP_EXPONENT = _MODP_2048 // 3


@dataclass(frozen=True)
class _Record:
    value: int
    index: int
    tag: tuple


def interp_kernel() -> int:
    """Interpreter-bound mix like test_medium protocol code: small-int
    modular powers, sha256 over short strings, dict churn, small frozen
    records, and formatting and parsing of transcript-like lines."""
    p, q = 262643, 131321
    acc = 1
    table = {}
    records = []
    for i in range(450):
        acc = acc * pow(4, (i * 7919 + acc) % q, p) % p
        digest = hashlib.sha256(b"bench|%d|%d" % (i, acc)).digest()
        rec = _Record(acc, i, (digest[0], i % 5))
        records.append(rec)
        table[(rec.tag, i % 97)] = rec
        if i % 3 == 0:
            table.pop(((acc % 7, (i * 31) % 5), (i * 31) % 97), None)
        line = f"CIPHER session={rec.index} part={rec.tag[1]} O={rec.value} c={digest.hex()}"
        fields = dict(kv.split("=", 1) for kv in line.split()[1:])
        acc = (acc + int(fields["O"])) % p
    records.sort(key=lambda r: (r.tag, r.value))
    return acc + len(table) + records[0].value


def modexp_kernel() -> int:
    """2048-bit modular exponentiation, the cost of the production group."""
    return pow(_MODEXP_BASE, _MODEXP_EXPONENT, _MODP_2048)


def _read(kernel) -> float:
    """Median of three timed runs, with the cyclic garbage collector
    paused so that collecting the workload's garbage does not land in
    the reading."""
    readings = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = perf_counter()
            kernel()
            readings.append(perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(readings)


# K_nominal: a typical reading of each kernel, rounded, on a 2-core
# x86-64 VM with Python 3.11.  It only fixes the unit; changing it
# rescales every normalised time of the workloads that use the kernel,
# so it must stay fixed for results to stay comparable.
KERNELS = {
    "interp": (interp_kernel, 0.0045),
    "modexp": (modexp_kernel, 0.0300),
}


@dataclass(frozen=True)
class Sample:
    raw_s: float      # wall-clock seconds of the sample itself
    kernel_s: float   # mean of the adjacent kernel readings
    norm_s: float     # raw_s * K_nominal / kernel_s


class DriftClock:
    """Times samples between reference-kernel readings.

    Consecutive samples share the reading between them; call
    :meth:`refresh` after untimed work so the next sample gets a fresh
    "before" reading.
    """

    def __init__(self, kernel_name: str):
        self.kernel_name = kernel_name
        self._kernel, self.nominal_s = KERNELS[kernel_name]
        self.refresh()

    def refresh(self) -> None:
        self._last = _read(self._kernel)

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result and the timed sample."""
        t0 = perf_counter()
        out = fn(*args)
        raw = perf_counter() - t0
        after = _read(self._kernel)
        kernel = (self._last + after) / 2
        self._last = after
        return out, Sample(raw, kernel, raw * self.nominal_s / kernel)


def median_sample(samples) -> Sample:
    """Per-field medians of a list of samples."""
    return Sample(
        statistics.median(s.raw_s for s in samples),
        statistics.median(s.kernel_s for s in samples),
        statistics.median(s.norm_s for s in samples),
    )
