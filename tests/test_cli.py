"""Exit-code contract and output of the command-line driver."""

import hashlib
from pathlib import Path

import pytest

from dcmesh import sim
from dcmesh.cli import main
from dcmesh.groups import derive_params


def write_scenario(tmp_path, scenario, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(scenario.to_text())
    return str(path)


HONEST = sim.Scenario(n=5, senders=((0, 36), (1, 11), (2, 28), (3, 17), (4, 38)), seed=42)


def test_run_honest_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, HONEST)
    out = str(tmp_path / "t.log")
    assert main(["run", path, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "5 messages / 5 transmitted rounds" in printed
    assert (tmp_path / "t.log").exists()


def test_run_then_verify_agree(tmp_path):
    path = write_scenario(tmp_path, HONEST)
    out = str(tmp_path / "t.log")
    assert main(["run", path, "--out", out]) == 0
    assert main(["verify", out]) == 0


def test_run_empty_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, sim.Scenario(n=2, seed=1))
    out = str(tmp_path / "t.log")
    assert main(["run", path, "--out", out]) == 0
    assert "0 messages / 1 transmitted rounds" in capsys.readouterr().out


def test_run_disruptor_exit_code(tmp_path, capsys):
    scenario = sim.Scenario(
        n=5, senders=HONEST.senders, adversaries=((3, "bad_pad"),), seed=42
    )
    path = write_scenario(tmp_path, scenario)
    out = str(tmp_path / "t.log")
    assert main(["run", path, "--out", out]) == 2
    printed = capsys.readouterr().out
    assert "verdict: participant 3" in printed
    # transcript still written and verifiable
    assert main(["verify", out]) == 0


def test_run_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("dcmesh-scenario v1\nn = 0\n")
    assert main(["run", str(bad)]) == 1
    assert main(["run", str(tmp_path / "missing.txt")]) == 1


@pytest.mark.parametrize(
    "line",
    ["sender = 1", "sender = x 5", "adversary = 1", "max_retires = 2", "n = 4"],
    ids=[
        "sender_without_payload",
        "sender_id_not_a_number",
        "adversary_without_strategy",
        "misspelt_key",
        "repeated_key",
    ],
)
def test_run_rejects_bad_scenario_lines(tmp_path, capsys, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"dcmesh-scenario v1\nn = 3\n{line}\n")
    assert main(["run", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_non_utf8_files_are_errors(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"dcmesh-scenario v1\nn = 3\xff\n")
    assert main(["run", str(path)]) == 1
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error: ") + err.count("malformed") == 2


@pytest.mark.parametrize("n", ["0", "-2"])
def test_keygen_rejects_empty_groups(capsys, n):
    assert main(["keygen", "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("n, status", [("17", 0), ("18", 1)])
def test_keygen_accepts_only_an_n_some_run_of_its_group_accepts(capsys, n, status):
    # in test_small, 3n < 53 bounds n even at payload_bits 1: no run of
    # 18 participants exists there, so keygen prints no key records for one
    assert main(["keygen", "--n", n, "--group", "test_small"]) == status
    captured = capsys.readouterr()
    if status:
        assert captured.out == "" and captured.err.startswith("error: ")
    else:
        assert captured.out.startswith("GROUP name=test_small ")


def _no_run(scenario):
    raise AssertionError("the scenario ran")


def test_run_to_an_unwritable_out_is_an_error(tmp_path, capsys, monkeypatch):
    # the out path is opened before the run, so a bad one costs no run
    monkeypatch.setattr(sim, "run_scenario", _no_run)
    path = write_scenario(tmp_path, HONEST)
    out = tmp_path / "missing" / "x.transcript"
    assert main(["run", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_a_run_that_raises_leaves_no_transcript(tmp_path, monkeypatch):
    monkeypatch.setattr(sim, "run_scenario", _no_run)
    path = write_scenario(tmp_path, HONEST)
    out = tmp_path / "x.transcript"
    with pytest.raises(AssertionError, match="the scenario ran"):
        main(["run", path, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_failed_run_keeps_the_file_at_out(tmp_path, monkeypatch, error):
    # the transcript replaces out only once written, so a run that raises,
    # or is interrupted, leaves out as it was and no temporary file
    def failing_run(scenario):
        raise error("the run failed")

    monkeypatch.setattr(sim, "run_scenario", failing_run)
    path = write_scenario(tmp_path, HONEST)
    out = tmp_path / "x.transcript"
    out.write_text("an earlier transcript\n")
    with pytest.raises(error, match="the run failed"):
        main(["run", path, "--out", str(out)])
    assert out.read_text() == "an earlier transcript\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.txt", "x.transcript"]


def test_a_run_replaces_the_file_at_out(tmp_path):
    path = write_scenario(tmp_path, HONEST)
    out = tmp_path / "x.transcript"
    out.write_text("an earlier transcript\n")
    assert main(["run", path, "--out", str(out)]) == 0
    assert out.read_text() == sim.run_scenario(HONEST).to_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.txt", "x.transcript"]


def test_run_group_override_rejected_when_too_small(tmp_path):
    # slot encodings cannot fit the tiny group, so the override must fail
    path = write_scenario(tmp_path, HONEST)
    assert main(["run", path, "--group", "test_small"]) == 1


def test_run_verbose_prints_rounds(tmp_path, capsys):
    path = write_scenario(tmp_path, HONEST)
    out = str(tmp_path / "t.log")
    assert main(["run", path, "--out", out, "--verbose"]) == 0
    printed = capsys.readouterr().out
    assert "session 1 round 1" in printed
    assert "delivered message 11" in printed


def test_verbose_is_a_run_option_only(tmp_path, capsys):
    # --verbose belongs to `run`; at the top level the subcommand's own
    # default would silently override it
    path = write_scenario(tmp_path, HONEST)
    out = str(tmp_path / "t.log")
    with pytest.raises(SystemExit) as exc:
        main(["--verbose", "run", path, "--out", out])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


def test_verify_prints_every_divergence(tmp_path, capsys):
    path = write_scenario(tmp_path, HONEST)
    out = str(tmp_path / "t.log")
    main(["run", path, "--out", out])
    lines = Path(out).read_text().splitlines()
    # a forged delivery diverges at its own record and at the body digest
    index = next(i for i, ln in enumerate(lines) if ln.startswith("RESOLVED"))
    lines[index] = lines[index].replace("payload=", "payload=1")
    Path(out).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", out]) == 2
    printed = capsys.readouterr().out.splitlines()
    reported = [ln for ln in printed if ln.startswith("divergence at record")]
    assert len(reported) == 2
    assert reported[0].startswith(f"divergence at record {index}: recorded RESOLVED")
    assert "!= recomputed RESOLVED" in reported[0]
    assert "recorded SUMMARY" in reported[1] and "!= recomputed SUMMARY" in reported[1]
    assert "2 divergence(s) total" in printed


def _verify_edited(tmp_path, capsys, edit):
    """Verify an honest run's transcript after ``edit`` changes its lines;
    returns the exit code, the lines and the reported divergence lines."""
    path = write_scenario(tmp_path, HONEST)
    out = str(tmp_path / "t.log")
    main(["run", path, "--out", out])
    lines = Path(out).read_text().splitlines()
    edit(lines)
    Path(out).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["verify", out])
    printed = capsys.readouterr().out.splitlines()
    return code, lines, [ln for ln in printed if ln.startswith("divergence at record")]


def test_verify_stops_at_swapped_ciphers(tmp_path, capsys):
    # the judge asks for participant 1's CIPHER and finds participant 2's
    def swap(lines):
        first = next(i for i, ln in enumerate(lines) if ln.startswith("CIPHER ")) + 1
        lines[first], lines[first + 1] = lines[first + 1], lines[first]

    code, lines, reported = _verify_edited(tmp_path, capsys, swap)
    assert code == 2
    first = next(i for i, ln in enumerate(lines) if ln.startswith("CIPHER ")) + 1
    assert reported[0].startswith(f"divergence at record {first}: recorded CIPHER ")
    assert reported[0].endswith("!= expected CIPHER round=1 part=1")


def test_verify_names_the_aggregate_of_a_changed_tree(tmp_path, capsys):
    # one more message in round 1's slot count: the sum, and so the tree, change
    def add_count(lines):
        index = next(i for i, ln in enumerate(lines) if ln.startswith("CIPHER "))
        tokens = lines[index].split(" ")
        assert tokens[4].startswith("O_count=")
        q = derive_params(HONEST.group, sim.DOMAIN_TAG).q
        value = (int(tokens[4].split("=")[1]) + 1) % q
        lines[index] = " ".join(tokens[:4] + [f"O_count={value}"] + tokens[5:])

    code, lines, reported = _verify_edited(tmp_path, capsys, add_count)
    assert code == 2
    aggregate = next(i for i, ln in enumerate(lines) if ln.startswith("AGGREGATE "))
    assert reported[0].startswith(f"divergence at record {aggregate}: recorded AGGREGATE ")


def test_verify_detects_bit_flip(tmp_path):
    path = write_scenario(tmp_path, HONEST)
    out = str(tmp_path / "t.log")
    main(["run", path, "--out", out])
    text = Path(out).read_text()
    # flip one hex digit inside the first attached proof
    index = text.index("proof=") + len("proof=")
    while text[index] == "-":
        index = text.index("proof=", index) + len("proof=")
    flipped = "0" if text[index] != "0" else "1"
    mutated = text[:index] + flipped + text[index + 1 :]
    Path(out).write_text(mutated)
    assert main(["verify", out]) == 2


def test_verify_truncated_file(tmp_path):
    path = write_scenario(tmp_path, HONEST)
    out = str(tmp_path / "t.log")
    main(["run", path, "--out", out])
    lines = Path(out).read_text().splitlines()
    Path(out).write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    assert main(["verify", out]) == 1
    assert main(["verify", str(tmp_path / "missing.log")]) == 1


def test_paper_example_passes(capsys):
    assert main(["paper-example"]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    assert "(5,130)" in printed.replace(" ", "").replace("round1[transmitted]", "")
    assert "transmitted rounds: [1, 2, 4, 6, 14]" in printed


def test_paper_example_seed_invariant(capsys):
    # splitting is deterministic, so the tree ignores the seed override
    assert main(["paper-example", "--seed", "12345"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_keygen_outputs_header(capsys):
    assert main(["keygen", "--n", "3", "--seed", "5"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("GROUP name=test_medium ")
    # no OPTOUT record: keygen refuses nothing
    assert [ln.split(" ")[0] for ln in printed[1:]] == ["PUBKEY"] * 3 + ["ENDORSE"] * 3
    # session 1's epoch-0 key records, exactly as a run with that seed writes them
    ran = sim.run_scenario(sim.Scenario(n=3, seed=5)).to_text().splitlines()
    start = next(i for i, ln in enumerate(ran) if ln.startswith("SESSION idx=1 "))
    assert printed[1:] == ran[start + 1 : start + 7]
    assert printed[0] in ran
    with pytest.raises(SystemExit):
        main(["keygen", "--rounds", "2"])  # the epoch size is fixed
    assert main(["keygen", "--seed", "-1"]) == 1


def test_production_keygen_is_pinned(capsys):
    # no pinned transcript uses the production group: its key records,
    # byte for byte, through the SHA-256 of keygen's output
    assert main(["keygen", "--group", "production", "--n", "3", "--seed", "1"]) == 0
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == (
        "d7123c3639fa5e1a2372b860df4f7fd274d03e13d456832ec10d226bfba4a269"
    )


class _BadSigner(sim._Participants):
    """Participant 1 hands the judge its epoch-0 root signed with s + 1."""

    def epoch(self, k):
        signed = list(super().epoch(k))
        if k == 0 and 1 in self.graph.participants:
            at = self.graph.participants.index(1)
            e, s = signed[at].signature
            signed[at] = signed[at]._replace(signature=(e, (s + 1) % self.graph.params.q))
        return signed


@pytest.mark.parametrize("strategy, reason, trigger", [
    ("bad_pad", "aggregate_mismatch", "PUBLISH session=1 slot=0 part=1 "),
    ("refuse_proof", "non_cooperation", "CIPHER session=1 round=2 part=1 "),
    ("wrong_branch", "wrong_branch", "DEMAND session=1 node=8 part=1 "),
    (None, "bad_signature", "ENDORSE session=1 epoch=0 part=1 "),
], ids=["bad_pad", "refuse_proof", "wrong_branch", "bad_signature"])
def test_verify_explain_names_each_verdicts_trigger(
    tmp_path, capsys, monkeypatch, strategy, reason, trigger
):
    # no scenario strategy signs badly: a test-local signer does
    if strategy is None:
        monkeypatch.setattr(sim, "_Participants", _BadSigner)
    scenario = sim.Scenario(
        n=3, senders=((0, 10), (1, 40)), adversaries=((1, strategy),) if strategy else (), seed=4
    )
    path = write_scenario(tmp_path, scenario)
    out = str(tmp_path / "t.log")
    assert main(["run", path, "--out", out]) == 2
    lines = Path(out).read_text().splitlines()
    capsys.readouterr()
    # the default output is unchanged; --explain adds one line per VERDICT
    assert main(["verify", out]) == 0
    plain = capsys.readouterr().out
    assert plain == "transcript verified: clean\n"
    assert main(["verify", "--explain", out]) == 0
    printed = capsys.readouterr().out
    assert printed.endswith(plain)
    (line,) = printed[: -len(plain)].splitlines()
    verdict = next(i for i, ln in enumerate(lines) if ln.startswith("VERDICT "))
    index = int(line.rsplit(" ", 1)[1])
    assert line.startswith(f"verdict at record {verdict}: participant 1 ({reason} at ")
    # the first record of that kind for the participant
    assert lines[index].startswith(trigger)
    assert index == next(i for i, ln in enumerate(lines) if ln.startswith(trigger))


class _OutsideGroupParticipant(sim.HonestParticipant):
    """Honest, but broadcasts p - c for its commitment c, outside the group."""

    def broadcast(self, round_id, slot):
        ct = super().broadcast(round_id, slot)
        return ct._replace(commitment=self.params.p - ct.commitment)


def test_verify_explain_names_the_cipher_outside_the_group(tmp_path, capsys, monkeypatch):
    # n = 4 at seed 2, senders 0, 1 and 2, with participant 3 broadcasting
    # p - c at round 1: its non_cooperation verdict is triggered by its
    # round-1 CIPHER record, record 17
    monkeypatch.setitem(sim._STRATEGY_CLASSES, "refuse_proof", _OutsideGroupParticipant)
    scenario = sim.Scenario(
        n=4, senders=((0, 36), (1, 11), (2, 28)), adversaries=((3, "refuse_proof"),), seed=2
    )
    out = str(tmp_path / "t.log")
    assert main(["run", write_scenario(tmp_path, scenario), "--out", out]) == 2
    lines = Path(out).read_text().splitlines()
    assert lines[17].startswith("CIPHER session=1 round=1 part=3 ")
    capsys.readouterr()
    assert main(["verify", "--explain", out]) == 0
    (line, clean) = capsys.readouterr().out.splitlines()
    verdict = next(i for i, ln in enumerate(lines) if ln.startswith("VERDICT "))
    assert line == (f"verdict at record {verdict}: participant 3 (non_cooperation at round:1) "
                    "triggered by record 17")
    assert clean == "transcript verified: clean"
