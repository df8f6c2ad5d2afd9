"""Permissioned tamper-evident audit ledger.

Blocks of agent-action entries are hash-chained, Merkle-rooted and committed
by a single-round signed quorum over a static validator set (2f+1 of
N = 3f+1 votes). Serialization is canonical byte-for-byte: length-prefixed
UTF-8 strings, big-endian fixed-width integers, fields in declared order, so
identical entry sequences always produce identical chain bytes.
"""

from __future__ import annotations

import hashlib
import os
import struct
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .env import AgentRole, ConfigError, MitigationAction, OutcomeFlags

ZERO_HASH = bytes(32)

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"

DEFAULT_VALIDATORS = 4  # an evaluation's validator set, and `ledger verify`'s default


class LedgerError(Exception):
    pass


class AclViolation(LedgerError):
    pass


class DecodeError(LedgerError):
    def __init__(self, message: str, block_index: int = 0):
        super().__init__(message)
        self.block_index = block_index


# -- Merkle tree -----------------------------------------------------------------


def _leaf_hash(leaf: bytes) -> bytes:
    return hashlib.sha256(LEAF_PREFIX + leaf).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(NODE_PREFIX + left + right).digest()


def _merkle_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """Every level of the domain-separated tree, leaf hashes first; odd levels
    are padded by duplicating their last node.

    An empty list hashes to the leaf hash of the empty string.
    """
    level = [_leaf_hash(leaf) for leaf in leaves] or [_leaf_hash(b"")]
    levels = [level]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [_node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


def merkle_root(leaves: list[bytes]) -> bytes:
    return _merkle_levels(leaves)[-1][0]


def merkle_proof(leaves: list[bytes], index: int) -> list[bytes]:
    """Sibling path from leaf `index` to the root."""
    if not (0 <= index < len(leaves)):
        raise IndexError(f"leaf index {index} out of range")
    return [level[(index >> depth) ^ 1]
            for depth, level in enumerate(_merkle_levels(leaves)[:-1])]


def verify_proof(root: bytes, leaf: bytes, index: int, path: list[bytes]) -> bool:
    node = _leaf_hash(leaf)
    idx = index
    for sibling in path:
        if idx % 2 == 0:
            node = _node_hash(node, sibling)
        else:
            node = _node_hash(sibling, node)
        idx //= 2
    return node == root


# -- canonical serialization --------------------------------------------------


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _pack_bytes(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


@dataclass(frozen=True)
class LedgerEntry:
    agent_id: str
    role: AgentRole
    signals_digest: bytes          # 32 bytes
    reasoning_summary: str
    action: MitigationAction
    outcome: OutcomeFlags
    timestamp: int                 # simulated-clock minutes
    _raw: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The canonical bytes, encoded once: every root, block and file reuses them.
        if len(self.signals_digest) != 32:
            raise LedgerError("signals_digest must be 32 bytes")
        object.__setattr__(self, "_raw", b"".join([
            _pack_str(self.agent_id),
            _pack_str(self.role.value),
            self.signals_digest,
            _pack_str(self.reasoning_summary),
            _pack_str(self.action.name),
            struct.pack(">BBB", int(self.outcome.attack_mitigated),
                        int(self.outcome.false_positive),
                        int(self.outcome.developer_accepted)),
            struct.pack(">d", self.outcome.build_delay),
            struct.pack(">Q", self.timestamp),
        ]))

    def serialize(self) -> bytes:
        return self._raw

    @staticmethod
    def deserialize(data: bytes) -> "LedgerEntry":
        return _decode_entry(data, 0, len(data))


@dataclass(frozen=True)
class Block:
    index: int
    prev_hash: bytes
    merkle_root: bytes
    entries: tuple[LedgerEntry, ...]
    proposer: str
    signatures: tuple[tuple[str, bytes], ...]
    timestamp: int

    def header_bytes(self) -> bytes:
        return b"".join([
            struct.pack(">Q", self.index),
            self.prev_hash,
            self.merkle_root,
            _pack_str(self.proposer),
            struct.pack(">Q", self.timestamp),
        ])

    def hash(self) -> bytes:
        return hashlib.sha256(self.header_bytes()).digest()

    def serialize(self) -> bytes:
        out = [self.header_bytes(), struct.pack(">I", len(self.entries))]
        for e in self.entries:
            out.append(_pack_bytes(e.serialize()))
        out.append(struct.pack(">I", len(self.signatures)))
        for vid, sig in self.signatures:
            out.append(_pack_str(vid))
            out.append(_pack_bytes(sig))
        return b"".join(out)

    @staticmethod
    def deserialize(data: bytes) -> "Block":
        return _decode_block(data, 0, len(data))


def entries_root(entries: tuple[LedgerEntry, ...]) -> bytes:
    return merkle_root([e.serialize() for e in entries])


# -- strict decoding -----------------------------------------------------------

# One parser reads every record: it reads fields at offsets into a single
# bytes object and checks each against the end of the record that holds it,
# in encoding order, so the first fault in a record is the one reported. The
# encoding is canonical (strict UTF-8, exact enum names, flag bytes of 0 or
# 1, fixed-width numbers), so a record that parses is exactly the encoding
# of its fields, and a decoded entry keeps its slice of the data as its
# bytes instead of being encoded again.

_LENGTH = struct.Struct(">I")
_BLOCK_HEAD = struct.Struct(">Q32s32sI")   # index, prev_hash, merkle_root, proposer length
_BLOCK_TAIL = struct.Struct(">QI")         # timestamp, entry count
_ENTRY_TAIL = struct.Struct(">BBBdQ")      # outcome flags, build delay, timestamp
_ROLES = {role.value.encode(): role for role in AgentRole}
_ACTIONS = {action.name.encode(): action for action in MitigationAction}


def _span(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """Offsets of the length-prefixed field at `pos`, which must end by `end`."""
    start = pos + 4
    if start <= end:
        stop = start + _LENGTH.unpack_from(data, pos)[0]
        if stop <= end:
            return start, stop
    raise DecodeError("truncated record")


def _text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("invalid UTF-8") from exc


def _decode_entry(data: bytes, pos: int, end: int) -> LedgerEntry:
    """The entry encoded as data[pos:end]."""
    raw = data[pos:end]
    start, pos = _span(data, pos, end)
    agent_id = _text(data[start:pos])
    start, pos = _span(data, pos, end)
    role = _ROLES.get(data[start:pos])
    if role is None:
        raise DecodeError(f"{_text(data[start:pos])!r} is not a valid AgentRole")
    digest = data[pos:pos + 32]
    start, pos = _span(data, pos + 32, end)
    summary = _text(data[start:pos])
    start, pos = _span(data, pos, end)
    action = _ACTIONS.get(data[start:pos])
    if action is None:
        raise DecodeError(f"unknown action {_text(data[start:pos])!r}")
    if pos + _ENTRY_TAIL.size == end:
        m, fp, acc, delay, timestamp = _ENTRY_TAIL.unpack_from(data, pos)
        if m | fp | acc <= 1:
            # Built field by field, with `raw` as its bytes: nothing is encoded.
            entry = object.__new__(LedgerEntry)
            put = object.__setattr__
            put(entry, "agent_id", agent_id)
            put(entry, "role", role)
            put(entry, "signals_digest", digest)
            put(entry, "reasoning_summary", summary)
            put(entry, "action", action)
            put(entry, "outcome", OutcomeFlags(m == 1, fp == 1, acc == 1, delay))
            put(entry, "timestamp", timestamp)
            put(entry, "_raw", raw)
            return entry
    # The tail is not 19 bytes with valid flags: name its first fault.
    if pos + 3 <= end and max(data[pos:pos + 3]) > 1:
        raise DecodeError("boolean flag byte must be 0 or 1")
    if pos + _ENTRY_TAIL.size < end:
        raise DecodeError("trailing bytes after entry")
    raise DecodeError("truncated record")


def _decode_block(data: bytes, pos: int, end: int) -> Block:
    """The block encoded as data[pos:end]."""
    if pos + _BLOCK_HEAD.size > end:
        raise DecodeError("truncated record")
    index, prev_hash, root, size = _BLOCK_HEAD.unpack_from(data, pos)
    pos += _BLOCK_HEAD.size
    if pos + size > end:
        raise DecodeError("truncated record")
    proposer = _text(data[pos:pos + size])
    pos += size
    if pos + _BLOCK_TAIL.size > end:
        raise DecodeError("truncated record")
    timestamp, count = _BLOCK_TAIL.unpack_from(data, pos)
    pos += _BLOCK_TAIL.size
    entries = []
    for _ in range(count):
        start, pos = _span(data, pos, end)
        entries.append(_decode_entry(data, start, pos))
    if pos + 4 > end:
        raise DecodeError("truncated record")
    (count,) = _LENGTH.unpack_from(data, pos)
    pos += 4
    signatures = []
    for _ in range(count):
        start, pos = _span(data, pos, end)
        vid = _text(data[start:pos])
        start, pos = _span(data, pos, end)
        signatures.append((vid, data[start:pos]))
    if pos != end:
        raise DecodeError("trailing bytes after block")
    return Block(index, prev_hash, root, tuple(entries), proposer, tuple(signatures), timestamp)


# -- validators and consensus ----------------------------------------------------


@dataclass
class ValidatorSet:
    validators: list[tuple[str, Ed25519PublicKey]]

    def __post_init__(self):
        # With no validators the quorum is -1 and any chain would pass.
        if not self.validators:
            raise ConfigError("a validator set needs at least one validator")

    @property
    def n(self) -> int:
        return len(self.validators)

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

    def public_key(self, vid: str) -> Optional[Ed25519PublicKey]:
        for v, key in self.validators:
            if v == vid:
                return key
        return None

    def ids(self) -> list[str]:
        return [v for v, _ in self.validators]


def generate_validators(n: int, seed: int) -> tuple[ValidatorSet, dict[str, Ed25519PrivateKey]]:
    """Deterministic validator keypairs derived from a seed."""
    keys: dict[str, Ed25519PrivateKey] = {}
    members = []
    for i in range(n):
        raw = hashlib.sha256(f"validator|{seed}|{i}".encode()).digest()
        priv = Ed25519PrivateKey.from_private_bytes(raw)
        vid = f"validator-{i}"
        keys[vid] = priv
        members.append((vid, priv.public_key()))
    return ValidatorSet(members), keys


@dataclass(frozen=True)
class Committed:
    signatures: tuple[tuple[str, bytes], ...]


@dataclass(frozen=True)
class Aborted:
    reason: str
    valid_votes: int
    verdicts: dict


HONEST, SILENT, REJECT, EQUIVOCATE = "honest", "silent", "reject", "equivocate"


def _valid_votes(validators: ValidatorSet, votes: Iterable[tuple[str, bytes]],
                 digest: bytes) -> tuple[tuple[str, bytes], ...]:
    """The votes that count, in order: one per known validator, the first of
    its signatures that verifies over `digest`."""
    valid: dict[str, bytes] = {}
    for vid, sig in votes:
        pub = validators.public_key(vid)
        if pub is None or vid in valid:
            continue
        try:
            pub.verify(sig, digest)
        except InvalidSignature:
            continue  # conflicting or malformed vote
        valid[vid] = sig
    return tuple(valid.items())


def _block_fault(block: Block, expected_prev: bytes, acl: "AclPolicy") -> Optional[str]:
    """The ChainInvalid reason a block's content earns, or None if it is
    valid: its link, its Merkle root and its entries' permissions."""
    if block.prev_hash != expected_prev:
        return "hash_link"
    if block.merkle_root != entries_root(block.entries):
        return "merkle_mismatch"
    for e in block.entries:
        if not acl.permits(e.role, e.action):
            return "acl"
    return None


def bft_commit(
    validators: ValidatorSet,
    signing_keys: dict[str, Ed25519PrivateKey],
    block: Block,
    behaviors: dict[str, str],
    expected_prev_hash: bytes,
    acl: "AclPolicy",
) -> Committed | Aborted:
    """Single-round signed-quorum commit over a static validator set.

    The honest validators re-verify the block (one pure check, computed once
    and shared) and each returns its own signed vote over the block hash;
    every vote is verified, and the block commits on 2f+1 valid distinct
    signatures. Equivocating validators sign a conflicting payload, which
    fails verification against this block and is discarded.
    """
    block_digest = block.hash()
    fault = _block_fault(block, expected_prev_hash, acl)
    votes: list[tuple[str, bytes]] = []
    verdicts: dict[str, str] = {}
    for vid, _pub in validators.validators:
        behavior = behaviors.get(vid, HONEST)
        if behavior in (SILENT, REJECT):
            verdicts[vid] = behavior
            continue
        key = signing_keys[vid]
        if behavior == EQUIVOCATE:
            conflicting = hashlib.sha256(block_digest + b"conflict").digest()
            votes.append((vid, key.sign(conflicting)))
            verdicts[vid] = "equivocate"
            continue
        verdicts[vid] = fault or "ok"
        if fault is None:
            votes.append((vid, key.sign(block_digest)))

    valid = _valid_votes(validators, votes, block_digest)
    if len(valid) >= validators.quorum:
        return Committed(valid)
    return Aborted(
        reason=f"{len(valid)} valid votes < quorum {validators.quorum}",
        valid_votes=len(valid),
        verdicts=verdicts,
    )


# -- access control ------------------------------------------------------------


@dataclass
class AclPolicy:
    allowed: dict[AgentRole, frozenset[MitigationAction]]

    def permits(self, role: AgentRole, action: MitigationAction) -> bool:
        return action in self.allowed.get(role, frozenset())


def default_acl() -> AclPolicy:
    everything = frozenset(MitigationAction)
    observer = frozenset({
        MitigationAction.ALLOW_CONTINUE,
        MitigationAction.REQUEST_REVIEW,
    })
    return AclPolicy({
        AgentRole.CICD_MONITORING: everything,
        AgentRole.CODE_ANALYSIS: observer | {MitigationAction.OPEN_GUARD_PULL_REQUEST},
        AgentRole.DEPENDENCY_INTELLIGENCE: observer | {MitigationAction.QUARANTINE_DEPENDENCY},
        AgentRole.ACCESS_CONTROL: observer | {MitigationAction.REVOKE_CREDENTIALS},
        AgentRole.CONFIGURATION_AUDIT: observer | {MitigationAction.APPLY_CONFIG_PATCH},
    })


# -- spreading vote work over CPUs -------------------------------------------------

# Fewer items than this run in-process. One block's votes (4 signs and 4
# verifies to commit, 4 verifies to check) take ~0.5-0.9 ms, so a second CPU
# saves ~0.25-0.45 ms a block. A two-process fork pool costs ~7-11 ms to
# start and stop, and the work after it runs slower while this process's
# pages, write-protected by the fork, fault back in: the first 0.5 s
# evaluation set-up after a 200-block run took ~40-60 ms longer. So a pool
# pays from ~150-250 blocks on; an evaluation's default 200 episodes stay
# in-process.
FAN_OUT_MIN = 256

# Chunks per worker: more chunks stop sooner after an early exit, fewer
# send fewer messages.
_CHUNKS_PER_WORKER = 16

# The function and items of the running fan-out, set in each worker by its
# initializer. Workers are forked, not spawned: fork hands them this state
# without pickling it (Ed25519 private keys cannot be pickled) and without a
# fresh import of pipeguard. pipeguard starts no thread, and the executor
# forks its workers before it starts its own.
_fork_work: Optional[tuple[Callable, Sequence]] = None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _set_fork_work(fn: Callable, items: Sequence) -> None:
    global _fork_work
    _fork_work = (fn, items)


def _run_chunk(part: slice) -> list:
    fn, items = _fork_work
    return [fn(item) for item in items[part]]


def _fan_out(fn: Callable, items: Sequence) -> Iterator:
    """Yield fn(item) for each item, in order.

    The calls run in forked worker processes, one per FAN_OUT_MIN / 2 items
    up to the number of usable CPUs; in this process when that makes fewer
    than two workers (fewer than FAN_OUT_MIN items, or one CPU), the
    platform cannot fork, or the system refuses a worker or its pipes. The
    workers have exited when the generator ends, is closed early or raises:
    on an early stop, chunks not yet started are cancelled and those running
    finish, so no worker is killed mid-write. A worker that dies mid-run
    raises LedgerError. Wrap it in contextlib.closing when the caller may
    stop early.
    """
    workers = min(_usable_cpus(), 2 * len(items) // FAN_OUT_MIN)
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    # Imported here, so that a process that never starts a pool (an
    # evaluation of under FAN_OUT_MIN episodes) loads none of their 25 modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    size = -(-len(items) // (workers * _CHUNKS_PER_WORKER))
    chunks = [slice(i, i + size) for i in range(0, len(items), size)]
    before = set(multiprocessing.active_children())
    try:
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                   initializer=_set_fork_work, initargs=(fn, items))
        # Forks every worker, before any chunk is queued to one.
        results = pool.map(_run_chunk, chunks)
    except OSError:
        # A refused fork leaves the workers forked before it idle, and the
        # pool, whose manager thread never started, cannot stop them.
        for child in set(multiprocessing.active_children()) - before:
            child.terminate()
            child.join()
        yield from map(fn, items)
        return
    try:
        for chunk in results:
            yield from chunk
    except BrokenProcessPool as exc:
        raise LedgerError(f"worker pool broke: {exc}") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# -- chain operations ------------------------------------------------------------


def _vote(block: Block, validators: ValidatorSet,
          signing_keys: dict[str, Ed25519PrivateKey], acl: AclPolicy) -> Committed | Aborted:
    """The quorum vote on `block`, judged against its own link."""
    return bft_commit(validators, signing_keys, block, {}, block.prev_hash, acl)


def _signed(block: Block, result: Committed | Aborted) -> Block:
    """`block` with the quorum's signatures; raises if the vote aborted."""
    if isinstance(result, Aborted):
        raise LedgerError(f"consensus aborted: {result.reason}")
    return Block(**{**block.__dict__, "signatures": result.signatures})


def _commit(block: Block, validators: ValidatorSet,
            signing_keys: dict[str, Ed25519PrivateKey], acl: AclPolicy) -> Block:
    """Run the quorum vote on `block`; returns it with the quorum's signatures."""
    return _signed(block, _vote(block, validators, signing_keys, acl))


def make_genesis(validators: ValidatorSet, signing_keys: dict[str, Ed25519PrivateKey],
                 acl: AclPolicy) -> Block:
    block = Block(
        index=0,
        prev_hash=ZERO_HASH,
        merkle_root=entries_root(()),
        entries=(),
        proposer=validators.ids()[0],
        signatures=(),
        timestamp=0,
    )
    return _commit(block, validators, signing_keys, acl)


def _propose(prev: Block, entries: list[LedgerEntry], proposer: str,
             validators: ValidatorSet, acl: AclPolicy, timestamp: Optional[int]) -> Block:
    """The unsigned block after `prev`; raises on a proposer that is not a
    validator or an entry its role may not record."""
    if proposer not in validators.ids():
        raise LedgerError(f"proposer {proposer!r} is not a validator")
    for e in entries:
        if not acl.permits(e.role, e.action):
            raise AclViolation(
                f"role {e.role.value} may not record action {e.action.name}"
            )
    return Block(
        index=prev.index + 1,
        prev_hash=prev.hash(),
        merkle_root=entries_root(tuple(entries)),
        entries=tuple(entries),
        proposer=proposer,
        signatures=(),
        timestamp=timestamp if timestamp is not None else prev.timestamp + 1,
    )


def append_block(
    chain: list[Block],
    entries: list[LedgerEntry],
    proposer: str,
    validators: ValidatorSet,
    signing_keys: dict[str, Ed25519PrivateKey],
    acl: AclPolicy,
    timestamp: Optional[int] = None,
) -> Block:
    """Validate, commit and append one block; raises on any rejection."""
    if not chain:
        raise LedgerError("chain must start with a genesis block")
    block = _propose(chain[-1], entries, proposer, validators, acl, timestamp)
    committed = _commit(block, validators, signing_keys, acl)
    chain.append(committed)
    return committed


def append_blocks(
    chain: list[Block],
    batches: Sequence[tuple[list[LedgerEntry], Optional[int]]],
    proposer: str,
    validators: ValidatorSet,
    signing_keys: dict[str, Ed25519PrivateKey],
    acl: AclPolicy,
) -> None:
    """append_block for each (entries, timestamp) batch, in order, with the
    same blocks, chain and first error.

    A block's hash covers no signature, so every header is chained first and
    the votes, which are most of the cost, then run through `_fan_out`.
    """
    if len(batches) < FAN_OUT_MIN:
        for entries, timestamp in batches:
            append_block(chain, entries, proposer, validators, signing_keys, acl, timestamp)
        return
    if not chain:
        raise LedgerError("chain must start with a genesis block")
    blocks: list[Block] = []
    rejected: Optional[LedgerError] = None
    prev = chain[-1]
    for entries, timestamp in batches:
        try:
            prev = _propose(prev, entries, proposer, validators, acl, timestamp)
        except LedgerError as exc:  # raised once the blocks before it commit
            rejected = exc
            break
        blocks.append(prev)

    def vote(block):
        return _vote(block, validators, signing_keys, acl)

    with closing(_fan_out(vote, blocks)) as results:
        for block, result in zip(blocks, results):
            chain.append(_signed(block, result))
    if rejected is not None:
        raise rejected


@dataclass(frozen=True)
class ChainValid:
    pass


@dataclass(frozen=True)
class ChainInvalid:
    first_bad_index: int
    reason: str  # hash_link | merkle_mismatch | quorum | signature | acl | encoding


def _vote_fault(validators: ValidatorSet, signatures: tuple[tuple[str, bytes], ...],
                digest: bytes) -> Optional[str]:
    """The ChainInvalid reason a block's signatures earn over its `digest`, or None."""
    valid = _valid_votes(validators, signatures, digest)
    if len(valid) < len(signatures):
        return "signature"
    if len(valid) < validators.quorum:
        return "quorum"
    return None


def verify_chain(chain: list[Block], validators: ValidatorSet,
                 acl: AclPolicy) -> ChainValid | ChainInvalid:
    """Recompute every linkage, root, signature, quorum and ACL check.

    The verdict names the first bad block, as a block-by-block walk would:
    a first pass checks indices, links, roots and ACLs up to the first
    fault; the signatures of the blocks before it are then checked, through
    `_fan_out`, up to the first that fails.
    """
    if not chain:
        return ChainInvalid(0, "hash_link")  # no genesis to link from
    content_fault: ChainValid | ChainInvalid = ChainValid()
    checked: list[tuple] = []  # (signatures, digest) of each block before the fault
    expected_prev = ZERO_HASH
    for i, block in enumerate(chain):
        fault = "hash_link" if block.index != i else _block_fault(block, expected_prev, acl)
        if fault is not None:
            content_fault = ChainInvalid(i, fault)
            break
        expected_prev = block.hash()
        checked.append((block.signatures, expected_prev))

    def vote_fault(item):
        return _vote_fault(validators, *item)

    with closing(_fan_out(vote_fault, checked)) as faults:
        for i, fault in enumerate(faults):
            if fault is not None:
                return ChainInvalid(i, fault)
    return content_fault


# -- flat-file persistence -------------------------------------------------------


def write_chain(chain: list[Block], path: str) -> None:
    with open(path, "wb") as fh:
        for block in chain:
            raw = block.serialize()
            fh.write(struct.pack(">I", len(raw)))
            fh.write(raw)


def read_chain(path: str) -> list[Block]:
    """Parse a ledger file; raises DecodeError with the failing block index."""
    with open(path, "rb") as fh:
        data = fh.read()
    blocks: list[Block] = []
    pos = 0
    while pos < len(data):
        try:
            start, pos = _span(data, pos, len(data))
            blocks.append(Block.deserialize(data[start:pos]))
        except DecodeError as exc:
            raise DecodeError(f"block {len(blocks)}: {exc}", len(blocks)) from exc
    return blocks


def verify_chain_file(path: str, validators: ValidatorSet,
                      acl: AclPolicy) -> ChainValid | ChainInvalid:
    try:
        chain = read_chain(path)
    except DecodeError as exc:
        return ChainInvalid(exc.block_index, "encoding")
    return verify_chain(chain, validators, acl)
