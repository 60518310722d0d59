"""The CLI's flag surface: each subcommand takes only the flags it
honours, and the machine axes are checked by argparse.

A flag a subcommand would accept and then ignore is refused at parse
time (exit code 2), before anything runs."""

import re

import pytest

from repro.__main__ import main

#: Every option each subcommand lists in its usage line.
FLAGS = {
    "repl": {"--cache-dir", "--trace", "--metrics", "--machine-trace",
             "--verify", "--target", "--tier", "--timing",
             "--diagnostics-json"},
    "batch": {"--cache-dir", "--trace", "--metrics", "--verify", "--target",
              "--jobs", "--server", "--prelude", "--json",
              "--trace-rewrites"},
    "fuzz": {"--target", "--tier", "--timing", "--machine-trace", "--seed",
             "--count", "--max-depth", "--no-verify", "--cse", "--peephole",
             "--telemetry"},
    "serve": {"--cache-dir", "--verify", "--target", "--jobs", "--socket",
              "--http", "--max-queue", "--timeout", "--max-request-bytes"},
    "client": {"--target", "--jobs", "--server", "--ping", "--stats",
               "--shutdown", "--prelude", "--json"},
}

#: The (subcommand, shared flag) pairs that used to be accepted and do
#: nothing.
INERT = [
    ("repl", "--jobs"),
    ("batch", "--tier"), ("batch", "--timing"), ("batch", "--machine-trace"),
    ("fuzz", "--cache-dir"), ("fuzz", "--trace"), ("fuzz", "--metrics"),
    ("fuzz", "--jobs"), ("fuzz", "--verify"),
    ("serve", "--trace"), ("serve", "--metrics"), ("serve", "--machine-trace"),
    ("serve", "--tier"), ("serve", "--timing"),
    ("client", "--cache-dir"), ("client", "--trace"), ("client", "--metrics"),
    ("client", "--machine-trace"), ("client", "--verify"),
    ("client", "--tier"), ("client", "--timing"),
]

#: A value for each shared flag that takes one (valid where accepted).
VALUES = {"--cache-dir": "store", "--trace": "t.json", "--metrics": "m.txt",
          "--machine-trace": "mt.json", "--jobs": "2", "--target": "s1",
          "--tier": "native", "--timing": "pipelined", "--verify": None}


@pytest.fixture
def argv_for(tmp_path, monkeypatch):
    """Build a command line that would run quickly if it parsed: the REPL
    sees end of input, serve returns before listening, and batch/client
    get a file and an address that fail fast."""
    import builtins

    import repro.serve

    def eof(prompt=""):
        raise EOFError

    monkeypatch.setattr(builtins, "input", eof)
    monkeypatch.setattr(repro.serve.ReproServer, "run", lambda self: 0)
    monkeypatch.chdir(tmp_path)
    source = tmp_path / "unit.lisp"
    source.write_text("(defun f (x) x)\n", encoding="utf-8")
    base = {
        "repl": ["repl"],
        "batch": ["batch", str(source)],
        "fuzz": ["fuzz", "--count", "0"],
        "serve": ["serve", "--socket", str(tmp_path / "d.sock")],
        "client": ["client", str(source),
                   "--server", str(tmp_path / "absent.sock")],
    }

    def build(subcommand, *extra):
        return base[subcommand] + list(extra)

    return build


def refused(argv, capsys):
    """Run *argv*; assert argparse refused it (exit 2, no traceback) and
    return its error text."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def usage_flags(subcommand, capsys):
    with pytest.raises(SystemExit):
        main([subcommand, "--help"])
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    return set(re.findall(r"\[(--[a-z-]+)", usage))


class TestSubcommandFlags:
    def test_each_subcommand_lists_exactly_its_flags(self, capsys):
        for subcommand, flags in FLAGS.items():
            assert usage_flags(subcommand, capsys) == flags, subcommand

    @pytest.mark.parametrize("subcommand,flag", INERT)
    def test_inert_flag_is_refused(self, subcommand, flag, argv_for,
                                   capsys):
        value = VALUES[flag]
        extra = [flag] if value is None else [flag, value]
        err = refused(argv_for(subcommand, *extra), capsys)
        assert "unrecognized arguments" in err
        assert flag in err

    @pytest.mark.parametrize("flag", ["--cache-dir", "--verify",
                                      "--trace-rewrites", "--trace",
                                      "--metrics"])
    def test_batch_server_refuses_local_only_flags(self, flag, argv_for,
                                                   tmp_path, capsys):
        value = VALUES.get(flag)
        extra = [flag] if value is None else [flag, value]
        err = refused(argv_for("batch", "--server",
                               str(tmp_path / "absent.sock"), *extra),
                      capsys)
        assert f"{flag} cannot be used with --server" in err


class TestAxisChoices:
    CASES = [(subcommand, flag)
             for subcommand, flags in FLAGS.items()
             for flag in ("--target", "--tier", "--timing")
             if flag in flags]

    @pytest.mark.parametrize("subcommand,flag", CASES)
    def test_bad_value_is_an_invalid_choice(self, subcommand, flag,
                                            argv_for, capsys):
        err = refused(argv_for(subcommand, flag, "bogus"), capsys)
        assert f"argument {flag}: invalid choice: 'bogus'" in err

    @pytest.mark.parametrize("subcommand", ["repl", "batch", "serve"])
    def test_last_value_wins_outside_fuzz(self, subcommand, argv_for,
                                          monkeypatch):
        seen = []
        import repro.__main__ as cli

        real = cli.CompilerOptions

        def recording(**kwargs):
            seen.append(kwargs.get("target"))
            return real(**kwargs)

        monkeypatch.setattr(cli, "CompilerOptions", recording)
        main(argv_for(subcommand, "--target", "pdp10", "--target", "vax"))
        assert seen[0] == "vax"
