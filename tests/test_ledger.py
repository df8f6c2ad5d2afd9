import errno
import hashlib
import itertools
import multiprocessing
import os

import pytest
from cryptography.exceptions import InvalidSignature
from hypothesis import given, settings, strategies as st

from pipeguard import ledger
from pipeguard.env import AgentRole, ConfigError, MitigationAction, OutcomeFlags
from pipeguard.ledger import (
    EQUIVOCATE,
    HONEST,
    REJECT,
    SILENT,
    AclPolicy,
    AclViolation,
    Aborted,
    Block,
    ChainInvalid,
    ChainValid,
    Committed,
    DecodeError,
    LedgerEntry,
    LedgerError,
    ZERO_HASH,
    append_block,
    append_blocks,
    bft_commit,
    default_acl,
    entries_root,
    generate_validators,
    make_genesis,
    merkle_proof,
    merkle_root,
    read_chain,
    verify_chain,
    verify_chain_file,
    verify_proof,
    write_chain,
)


def entry(agent="mitigation-controller", role=AgentRole.CICD_MONITORING,
          action=MitigationAction.BLOCK_BUILD, ts=0, summary="Injection found"):
    return LedgerEntry(
        agent_id=agent,
        role=role,
        signals_digest=hashlib.sha256(f"{agent}|{ts}".encode()).digest(),
        reasoning_summary=summary,
        action=action,
        outcome=OutcomeFlags(True, False, True, 2.0),
        timestamp=ts,
    )


@pytest.fixture(scope="module")
def setup4():
    validators, keys = generate_validators(4, seed=9)
    acl = default_acl()
    return validators, keys, acl


def build_chain(validators, keys, acl, n_blocks=3):
    chain = [make_genesis(validators, keys, acl)]
    for i in range(n_blocks):
        append_block(chain, [entry(ts=100 * (i + 1) + j) for j in range(3)],
                     validators.ids()[0], validators, keys, acl,
                     timestamp=100 * (i + 1))
    return chain


def with_signatures(block, signatures):
    return Block(block.index, block.prev_hash, block.merkle_root, block.entries,
                 block.proposer, signatures, block.timestamp)


class TestMerkle:
    def test_empty_root_is_domain_separated_empty_leaf(self):
        assert merkle_root([]) == hashlib.sha256(b"\x00").digest()

    def test_single_leaf(self):
        assert merkle_root([b"x"]) == hashlib.sha256(b"\x00x").digest()

    def test_four_leaf_independent_computation(self):
        leaves = [b"a", b"b", b"c", b"d"]
        h = lambda b: hashlib.sha256(b).digest()
        la, lb, lc, ld = (h(b"\x00" + leaf) for leaf in leaves)
        left = h(b"\x01" + la + lb)
        right = h(b"\x01" + lc + ld)
        assert merkle_root(leaves) == h(b"\x01" + left + right)

    def test_odd_count_duplicates_last(self):
        leaves = [b"a", b"b", b"c"]
        assert merkle_root(leaves) == merkle_root([b"a", b"b", b"c", b"c"])

    def test_proof_round_trip_small(self):
        leaves = [f"leaf-{i}".encode() for i in range(7)]
        root = merkle_root(leaves)
        for i, leaf in enumerate(leaves):
            path = merkle_proof(leaves, i)
            assert verify_proof(root, leaf, i, path)
            assert not verify_proof(root, b"other", i, path)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=33),
           st.data())
    def test_proof_round_trip_property(self, leaves, data):
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        root = merkle_root(leaves)
        assert verify_proof(root, leaves[index], index,
                            merkle_proof(leaves, index))

    def test_proof_index_bounds(self):
        with pytest.raises(IndexError):
            merkle_proof([b"a"], 1)


class TestSerialization:
    def test_entry_round_trip(self):
        e = entry()
        assert LedgerEntry.deserialize(e.serialize()) == e

    def test_entry_trailing_bytes_rejected(self):
        raw = entry().serialize() + b"\x00"
        with pytest.raises(DecodeError):
            LedgerEntry.deserialize(raw)

    def test_entry_truncation_rejected(self):
        raw = entry().serialize()
        with pytest.raises(DecodeError):
            LedgerEntry.deserialize(raw[:-1])

    def test_block_round_trip(self, setup4):
        validators, keys, acl = setup4
        chain = build_chain(validators, keys, acl, 1)
        block = chain[1]
        assert Block.deserialize(block.serialize()) == block

    def test_identical_entries_identical_bytes(self):
        assert entry().serialize() == entry().serialize()

    @settings(max_examples=50, deadline=None)
    @given(
        agent=st.text(min_size=0, max_size=20),
        summary=st.text(min_size=0, max_size=50),
        role=st.sampled_from(list(AgentRole)),
        action=st.sampled_from(list(MitigationAction)),
        ts=st.integers(min_value=0, max_value=2**63),
        delay=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    )
    def test_entry_round_trip_property(self, agent, summary, role, action,
                                       ts, delay, flags):
        e = LedgerEntry(agent, role, bytes(32), summary, action,
                        OutcomeFlags(*flags, delay), ts)
        assert LedgerEntry.deserialize(e.serialize()) == e


class TestConsensus:
    def test_all_honest_commits(self, setup4):
        validators, keys, acl = setup4
        genesis = make_genesis(validators, keys, acl)
        block = Block(1, genesis.hash(), entries_root((entry(),)), (entry(),),
                      validators.ids()[0], (), 1)
        result = bft_commit(validators, keys, block, {}, genesis.hash(), acl)
        assert isinstance(result, Committed)
        assert len(result.signatures) == 4

    def test_exhaustive_behavior_mixes_n4(self, setup4):
        validators, keys, acl = setup4
        genesis = make_genesis(validators, keys, acl)
        block = Block(1, genesis.hash(), entries_root((entry(),)), (entry(),),
                      validators.ids()[0], (), 1)
        ids = validators.ids()
        f = validators.f
        for mix in itertools.product([HONEST, SILENT, REJECT, EQUIVOCATE],
                                     repeat=4):
            behaviors = dict(zip(ids, mix))
            faulty = sum(b != HONEST for b in mix)
            result = bft_commit(validators, keys, block, behaviors,
                                genesis.hash(), acl)
            if faulty <= f:
                assert isinstance(result, Committed), mix
            if isinstance(result, Committed):
                # Safety: every accepted signature came from an honest vote.
                signers = {vid for vid, _ in result.signatures}
                honest = {vid for vid in ids if behaviors.get(vid, HONEST) == HONEST}
                assert signers <= honest
                assert len(signers) >= f + 1

    def test_hash_link_rejected_by_honest_validators(self, setup4):
        validators, keys, acl = setup4
        block = Block(1, bytes(32), entries_root((entry(),)), (entry(),),
                      validators.ids()[0], (), 1)
        result = bft_commit(validators, keys, block, {}, b"\x01" * 32, acl)
        assert isinstance(result, Aborted)
        assert result.valid_votes == 0
        assert set(result.verdicts.values()) == {"hash_link"}

    def test_merkle_mismatch_rejected(self, setup4):
        validators, keys, acl = setup4
        genesis = make_genesis(validators, keys, acl)
        block = Block(1, genesis.hash(), bytes(32), (entry(),),
                      validators.ids()[0], (), 1)
        result = bft_commit(validators, keys, block, {}, genesis.hash(), acl)
        assert isinstance(result, Aborted)
        assert "merkle_mismatch" in result.verdicts.values()

    def test_equivocating_signature_never_counts(self, setup4):
        validators, keys, acl = setup4
        genesis = make_genesis(validators, keys, acl)
        block = Block(1, genesis.hash(), entries_root(()), (),
                      validators.ids()[0], (), 1)
        behaviors = {vid: EQUIVOCATE for vid in validators.ids()}
        result = bft_commit(validators, keys, block, behaviors,
                            genesis.hash(), acl)
        assert isinstance(result, Aborted)
        assert result.valid_votes == 0

    # The honest validators and verify_chain judge a block by one check, so
    # they name each fault alike.
    @pytest.mark.parametrize("fault", ["hash_link", "merkle_mismatch", "acl"])
    def test_commit_verdict_is_verify_reason(self, setup4, fault):
        validators, keys, acl = setup4
        genesis = make_genesis(validators, keys, acl)
        entries = ((entry(role=AgentRole.CODE_ANALYSIS),) if fault == "acl"
                   else (entry(),))
        block = Block(1,
                      bytes(32) if fault == "hash_link" else genesis.hash(),
                      bytes(32) if fault == "merkle_mismatch" else entries_root(entries),
                      entries, validators.ids()[0], (), 1)
        result = bft_commit(validators, keys, block, {}, genesis.hash(), acl)
        assert isinstance(result, Aborted)
        # Signed by every validator, the block can fail verify_chain only by its fault.
        signed = with_signatures(block, tuple((vid, keys[vid].sign(block.hash()))
                                              for vid in validators.ids()))
        verdict = verify_chain([genesis, signed], validators, acl)
        assert set(result.verdicts.values()) == {verdict.reason} == {fault}


class TestChain:
    def test_append_and_verify(self, setup4):
        validators, keys, acl = setup4
        chain = build_chain(validators, keys, acl)
        assert isinstance(verify_chain(chain, validators, acl), ChainValid)
        assert [b.index for b in chain] == [0, 1, 2, 3]

    def test_no_entry_is_encoded_again(self, setup4, tmp_path, monkeypatch):
        # An entry packs its strings once, at construction; committing,
        # writing and verifying the chain reuse those bytes.
        validators, keys, acl = setup4
        chain = [make_genesis(validators, keys, acl)]
        packed = []
        pack_str = ledger._pack_str
        monkeypatch.setattr(ledger, "_pack_str",
                            lambda s: packed.append(s) or pack_str(s))
        entries = [entry(ts=j, summary=f"summary-{j}") for j in range(3)]
        summaries = lambda: [s for s in packed if s.startswith("summary-")]
        assert summaries() == ["summary-0", "summary-1", "summary-2"]
        block = append_block(chain, entries, validators.ids()[0], validators,
                             keys, acl)
        write_chain(chain, str(tmp_path / "chain.bin"))
        assert isinstance(verify_chain(chain, validators, acl), ChainValid)
        assert summaries() == ["summary-0", "summary-1", "summary-2"]
        assert [vid for vid, _ in block.signatures] == validators.ids()

    def test_short_signals_digest_rejected(self):
        with pytest.raises(LedgerError, match="32 bytes"):
            LedgerEntry("a", AgentRole.CICD_MONITORING, bytes(31), "s",
                        MitigationAction.BLOCK_BUILD,
                        OutcomeFlags(True, False, True, 0.0), 0)

    def test_genesis_without_quorum_raises(self, setup4):
        validators, _keys, acl = setup4
        _other, foreign_keys = generate_validators(4, seed=2)
        with pytest.raises(LedgerError, match="consensus aborted: 0 valid votes"):
            make_genesis(validators, foreign_keys, acl)

    def test_acl_breach_raises_and_names_role(self, setup4):
        validators, keys, acl = setup4
        chain = [make_genesis(validators, keys, acl)]
        bad = entry(role=AgentRole.CODE_ANALYSIS,
                    action=MitigationAction.REVOKE_CREDENTIALS)
        with pytest.raises(AclViolation, match="CodeAnalysis.*REVOKE_CREDENTIALS"):
            append_block(chain, [bad], validators.ids()[0], validators, keys, acl)

    def test_unknown_proposer_rejected(self, setup4):
        validators, keys, acl = setup4
        chain = [make_genesis(validators, keys, acl)]
        with pytest.raises(LedgerError, match="proposer"):
            append_block(chain, [entry()], "intruder", validators, keys, acl)

    def test_verify_detects_reordered_blocks(self, setup4):
        validators, keys, acl = setup4
        chain = build_chain(validators, keys, acl)
        swapped = [chain[0], chain[2], chain[1], chain[3]]
        verdict = verify_chain(swapped, validators, acl)
        assert isinstance(verdict, ChainInvalid)
        assert verdict.first_bad_index == 1
        assert verdict.reason == "hash_link"

    def test_verify_detects_entry_tamper(self, setup4):
        validators, keys, acl = setup4
        chain = build_chain(validators, keys, acl)
        victim = chain[2]
        tampered = Block(
            victim.index, victim.prev_hash, victim.merkle_root,
            (entry(summary="rewritten"),) + victim.entries[1:],
            victim.proposer, victim.signatures, victim.timestamp)
        verdict = verify_chain(chain[:2] + [tampered] + chain[3:],
                               validators, acl)
        assert verdict == ChainInvalid(2, "merkle_mismatch")

    def test_verify_detects_quorum_loss(self, setup4):
        validators, keys, acl = setup4
        chain = build_chain(validators, keys, acl, 1)
        thin = with_signatures(chain[1], chain[1].signatures[:2])
        verdict = verify_chain([chain[0], thin], validators, acl)
        assert verdict == ChainInvalid(1, "quorum")

    def test_verify_detects_forged_signature(self, setup4):
        validators, keys, acl = setup4
        chain = build_chain(validators, keys, acl, 1)
        vid, sig = chain[1].signatures[0]
        forged = (vid, sig[:-1] + bytes([sig[-1] ^ 1]))
        bad = with_signatures(chain[1], (forged,) + chain[1].signatures[1:])
        verdict = verify_chain([chain[0], bad], validators, acl)
        assert verdict == ChainInvalid(1, "signature")

    def test_verify_detects_repeated_vote(self, setup4):
        validators, keys, acl = setup4
        chain = build_chain(validators, keys, acl, 1)
        sigs = chain[1].signatures
        bad = with_signatures(chain[1], sigs + sigs[:1])
        verdict = verify_chain([chain[0], bad], validators, acl)
        assert verdict == ChainInvalid(1, "signature")

    def test_verify_detects_unknown_voter(self, setup4):
        validators, keys, acl = setup4
        chain = build_chain(validators, keys, acl, 1)
        _vid, sig = chain[1].signatures[0]
        bad = with_signatures(chain[1], chain[1].signatures + (("intruder", sig),))
        verdict = verify_chain([chain[0], bad], validators, acl)
        assert verdict == ChainInvalid(1, "signature")

    def test_empty_chain_is_invalid(self, setup4):
        validators, _keys, acl = setup4
        assert verify_chain([], validators, acl) == ChainInvalid(0, "hash_link")

    def test_file_round_trip(self, setup4, tmp_path):
        validators, keys, acl = setup4
        chain = build_chain(validators, keys, acl)
        path = tmp_path / "chain.bin"
        write_chain(chain, str(path))
        assert read_chain(str(path)) == chain
        assert isinstance(verify_chain_file(str(path), validators, acl),
                          ChainValid)

    def test_truncated_file_reports_encoding(self, setup4, tmp_path):
        validators, keys, acl = setup4
        chain = build_chain(validators, keys, acl)
        path = tmp_path / "chain.bin"
        write_chain(chain, str(path))
        path.write_bytes(path.read_bytes()[:-5])
        verdict = verify_chain_file(str(path), validators, acl)
        assert isinstance(verdict, ChainInvalid)
        assert verdict.reason == "encoding"
        assert verdict.first_bad_index == 3
        with pytest.raises(DecodeError, match="^block 3: ") as exc:
            read_chain(str(path))
        assert exc.value.block_index == 3


class TestAcl:
    def test_default_acl_role_scoping(self):
        acl = default_acl()
        assert acl.permits(AgentRole.CICD_MONITORING, MitigationAction.BLOCK_BUILD)
        assert acl.permits(AgentRole.ACCESS_CONTROL,
                           MitigationAction.REVOKE_CREDENTIALS)
        assert not acl.permits(AgentRole.ACCESS_CONTROL,
                               MitigationAction.APPLY_CONFIG_PATCH)
        assert acl.permits(AgentRole.CODE_ANALYSIS,
                           MitigationAction.REQUEST_REVIEW)

    def test_verify_chain_flags_acl_breach(self, setup4):
        validators, keys, acl = setup4
        chain = build_chain(validators, keys, acl, 1)
        permissive = AclPolicy({
            AgentRole.CICD_MONITORING: frozenset(MitigationAction),
            AgentRole.CODE_ANALYSIS: frozenset(MitigationAction),
        })
        bad_entry = entry(role=AgentRole.CODE_ANALYSIS,
                          action=MitigationAction.BLOCK_BUILD, ts=500)
        append_block(chain, [bad_entry], validators.ids()[0], validators,
                     keys, permissive, timestamp=500)
        verdict = verify_chain(chain, validators, acl)
        assert verdict == ChainInvalid(2, "acl")


class TestValidators:
    def test_deterministic_generation(self):
        a, _ = generate_validators(4, 1)
        b, _ = generate_validators(4, 1)
        assert [v for v, _ in a.validators] == [v for v, _ in b.validators]
        assert all(
            ka.public_bytes_raw() == kb.public_bytes_raw()
            for (_, ka), (_, kb) in zip(a.validators, b.validators)
        )

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_validator_set_rejected(self, n):
        with pytest.raises(ConfigError, match="at least one validator"):
            generate_validators(n, 0)

    def test_quorum_math(self):
        for n, f in [(4, 1), (7, 2), (10, 3)]:
            vs, _ = generate_validators(n, 0)
            assert vs.f == f
            assert vs.quorum == 2 * f + 1

    def test_genesis_links_to_zero(self, setup4):
        validators, keys, acl = setup4
        genesis = make_genesis(validators, keys, acl)
        assert genesis.prev_hash == ZERO_HASH
        assert genesis.index == 0


# -- the vote fan-out: pool and in-process paths give the same bytes and verdicts


def batches(n):
    """`n` blocks' (entries, timestamp); every fifth leaves the timestamp to
    append_block's default."""
    return [([entry(ts=10 * i + j) for j in range(i % 3)], None if i % 5 == 0 else 10 * i)
            for i in range(n)]


def reference_verify(chain, validators, acl):
    """verify_chain as one block-by-block walk."""
    if not chain:
        return ChainInvalid(0, "hash_link")
    expected_prev = ZERO_HASH
    for i, block in enumerate(chain):
        if block.index != i or block.prev_hash != expected_prev:
            return ChainInvalid(i, "hash_link")
        if block.merkle_root != entries_root(block.entries):
            return ChainInvalid(i, "merkle_mismatch")
        if not all(acl.permits(e.role, e.action) for e in block.entries):
            return ChainInvalid(i, "acl")
        expected_prev = block.hash()
        valid = set()
        for vid, sig in block.signatures:
            pub = validators.public_key(vid)
            if pub is None or vid in valid:
                continue
            try:
                pub.verify(sig, expected_prev)
            except InvalidSignature:
                continue
            valid.add(vid)
        if len(valid) < len(block.signatures):
            return ChainInvalid(i, "signature")
        if len(valid) < validators.quorum:
            return ChainInvalid(i, "quorum")
    return ChainValid()


# The fan-out threshold the tests run with: `long_chain` holds five times as
# many blocks, so a fault half-way down still leaves a pool's worth before it.
TEST_FAN_OUT_MIN = 16


@pytest.fixture(scope="module")
def long_chain(setup4):
    """80 blocks after genesis, built one append_block at a time."""
    validators, keys, acl = setup4
    chain = [make_genesis(validators, keys, acl)]
    for entries, timestamp in batches(5 * TEST_FAN_OUT_MIN):
        append_block(chain, entries, validators.ids()[0], validators, keys, acl, timestamp)
    return chain


@pytest.fixture
def two_cpus(monkeypatch):
    """A pool of two workers (even on one CPU) from TEST_FAN_OUT_MIN items on."""
    monkeypatch.setattr(ledger, "FAN_OUT_MIN", TEST_FAN_OUT_MIN)
    monkeypatch.setattr(ledger, "_usable_cpus", lambda: 2)


@pytest.fixture(params=["pool", "one_cpu"])
def path(request, monkeypatch, two_cpus):
    """Force the fan-out's path: the pool, or in-process on one CPU."""
    if request.param == "one_cpu":
        monkeypatch.setattr(ledger, "_usable_cpus", lambda: 1)
    return request.param


@pytest.fixture
def parent_votes(monkeypatch):
    """Pids of the bft_commit calls made in this process; a pool child's calls
    land in its own copy of the list."""
    calls = []
    real = ledger.bft_commit
    monkeypatch.setattr(ledger, "bft_commit",
                        lambda *a, **k: calls.append(os.getpid()) or real(*a, **k))
    return calls


@pytest.fixture(params=[1, 2], ids=["first-fork", "second-fork"])
def refused_fork(request, monkeypatch, two_cpus):
    """The pool's first or second fork fails as a fork refused for want of
    processes does. Returns the workers the pool tried to start."""
    real = multiprocessing.context.ForkProcess.start
    started = []

    def start(process):
        started.append(process)
        if len(started) == request.param:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        real(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    return started


def chain_bytes(chain):
    return b"".join(b.serialize() for b in chain)


def tampered(chain, index, fault):
    """A copy of `chain` with block `index` given one kind of fault."""
    block = chain[index]
    if fault == "signature":
        vid, sig = block.signatures[0]
        bad = with_signatures(block, ((vid, sig[:-1] + bytes([sig[-1] ^ 1])),)
                              + block.signatures[1:])
    elif fault == "quorum":
        bad = with_signatures(block, block.signatures[:2])
    elif fault == "merkle_mismatch":
        bad = Block(block.index, block.prev_hash, block.merkle_root,
                    (entry(summary="rewritten"),) + block.entries[1:],
                    block.proposer, block.signatures, block.timestamp)
    else:  # hash_link
        bad = Block(block.index, bytes(32), block.merkle_root, block.entries,
                    block.proposer, block.signatures, block.timestamp)
    return chain[:index] + [bad] + chain[index + 1:]


class TestFanOut:
    def test_append_blocks_matches_a_loop_of_append_block(self, setup4, long_chain, path,
                                                          parent_votes):
        validators, keys, acl = setup4
        chain = long_chain[:1]
        append_blocks(chain, batches(len(long_chain) - 1), validators.ids()[0],
                      validators, keys, acl)
        assert chain_bytes(chain) == chain_bytes(long_chain)
        # The pool's children cast every vote; in-process, this process does.
        assert len(parent_votes) == (0 if path == "pool" else len(long_chain) - 1)

    def test_append_blocks_below_the_threshold_calls_append_block(self, setup4, long_chain,
                                                                  monkeypatch, two_cpus):
        validators, keys, acl = setup4
        calls = []
        real = ledger.append_block
        monkeypatch.setattr(ledger, "append_block",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        chain = long_chain[:1]
        n = ledger.FAN_OUT_MIN - 1
        append_blocks(chain, batches(n), validators.ids()[0], validators, keys, acl)
        assert len(calls) == n
        assert chain_bytes(chain) == chain_bytes(long_chain[:n + 1])

    @pytest.mark.parametrize("faults, expected", [
        ((), ChainValid()),
        (((10, "signature"), (30, "merkle_mismatch")), ChainInvalid(10, "signature")),
        (((10, "merkle_mismatch"), (30, "signature")), ChainInvalid(10, "merkle_mismatch")),
        (((70, "quorum"),), ChainInvalid(70, "quorum")),
        (((20, "hash_link"), (5, "quorum")), ChainInvalid(5, "quorum")),
        (((20, "hash_link"),), ChainInvalid(20, "hash_link")),
    ])
    def test_verify_chain_matches_a_block_by_block_walk(self, setup4, long_chain, path,
                                                        faults, expected):
        validators, _keys, acl = setup4
        chain = long_chain
        for index, fault in faults:
            chain = tampered(chain, index, fault)
        assert reference_verify(chain, validators, acl) == expected
        assert verify_chain(chain, validators, acl) == expected

    def test_an_early_verify_stop_leaves_no_child(self, setup4, long_chain, two_cpus):
        validators, _keys, acl = setup4
        chain = tampered(long_chain, 1, "signature")
        assert verify_chain(chain, validators, acl) == ChainInvalid(1, "signature")
        assert multiprocessing.active_children() == []

    def test_an_abort_in_a_worker_raises_the_serial_error(self, setup4, long_chain,
                                                          monkeypatch, two_cpus):
        validators, keys, acl = setup4
        victim = 3 * TEST_FAN_OUT_MIN + 3
        real = ledger.bft_commit

        def abort_one(validators, signing_keys, block, *rest):
            if block.index == victim:
                return Aborted("1 valid votes < quorum 3", 1, {})
            return real(validators, signing_keys, block, *rest)

        monkeypatch.setattr(ledger, "bft_commit", abort_one)
        outcomes = []
        for cpus in (1, 2):
            monkeypatch.setattr(ledger, "_usable_cpus", lambda: cpus)
            chain = long_chain[:1]
            with pytest.raises(LedgerError) as exc:
                append_blocks(chain, batches(len(long_chain) - 1), validators.ids()[0],
                              validators, keys, acl)
            outcomes.append((str(exc.value), chain_bytes(chain)))
            assert multiprocessing.active_children() == []
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == ("consensus aborted: 1 valid votes < quorum 3",
                               chain_bytes(long_chain[:victim]))

    def test_an_acl_breach_commits_the_blocks_before_it(self, setup4, long_chain, path):
        validators, keys, acl = setup4
        plan = batches(len(long_chain) - 1)
        breach = 3 * TEST_FAN_OUT_MIN + 5
        plan[breach] = ([entry(role=AgentRole.CODE_ANALYSIS,
                               action=MitigationAction.REVOKE_CREDENTIALS)], None)
        chain = long_chain[:1]
        with pytest.raises(AclViolation, match="CodeAnalysis.*REVOKE_CREDENTIALS"):
            append_blocks(chain, plan, validators.ids()[0], validators, keys, acl)
        assert chain_bytes(chain) == chain_bytes(long_chain[:breach + 1])

    def test_a_refused_fork_commits_in_process(self, setup4, long_chain, refused_fork,
                                               parent_votes):
        validators, keys, acl = setup4
        chain = long_chain[:1]
        append_blocks(chain, batches(len(long_chain) - 1), validators.ids()[0],
                      validators, keys, acl)
        assert refused_fork
        assert chain_bytes(chain) == chain_bytes(long_chain)
        assert len(parent_votes) == len(long_chain) - 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("faults, expected", [
        ((), ChainValid()),
        (((40, "signature"),), ChainInvalid(40, "signature")),
    ])
    def test_a_refused_fork_verifies_in_process(self, setup4, long_chain, refused_fork,
                                                faults, expected):
        validators, _keys, acl = setup4
        chain = long_chain
        for index, fault in faults:
            chain = tampered(chain, index, fault)
        assert reference_verify(chain, validators, acl) == expected
        assert verify_chain(chain, validators, acl) == expected
        assert refused_fork
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_raises_ledger_error(self, setup4, long_chain, two_cpus,
                                                    dying_workers):
        validators, keys, acl = setup4
        with pytest.raises(LedgerError, match="worker pool broke"):
            append_blocks(long_chain[:1], batches(len(long_chain) - 1),
                          validators.ids()[0], validators, keys, acl)
        assert multiprocessing.active_children() == []
