"""The pinned CLI reports and refusals of ``spinchern``.

``THEOREM1_DIGESTS`` and ``REPORT_DIGESTS`` pin each report by its argv and
the sha256 of its stdout; ``REFUSALS`` pins each argv the CLI must refuse by a
text its one ``error:`` line holds.  The tests read these tables, and so does
CI on Python without pytest through ``PYTHONPATH=src python
tests/report_pins.py``, which names each argv that fails its pin and exits 1.
It imports only the standard library and ``spinchern``."""

import contextlib
import hashlib
import io
import shlex
import sys

from spinchern.cli import main
from spinchern.spin_reps import MAX_SHOWN, shown

# sha256 of theorem1 reports as printed before VerificationReport.to_dict was
# built from the report's fields (now its NamedTuple _asdict); a report format
# change must update these on purpose
THEOREM1_DIGESTS = [
    (("--format", "json"),
     "c5dfc3ac74b6f23054adb1731c298c1005672f3d3b46356a44c8ce871ce2991b"),
    (("--format", "md"),
     "60fb526e2676b6a11b532e6ec1c54009074d7af4ed449aff33f98a6669e1c4f7"),
    (("--format", "plain"),
     "a68f75497e960e24ef7ee5b4fa831259cf61e615a220a2795caf71666736dc25"),
    (("--convention", "paper-literal", "--format", "json"),
     "20d94264ff6b1e66eef6e54e6082596f1643821079b064fbb1c0eda83733f406"),
    (("--convention", "paper-literal", "--format", "md"),
     "60fb526e2676b6a11b532e6ec1c54009074d7af4ed449aff33f98a6669e1c4f7"),
    (("--convention", "paper-literal", "--format", "plain"),
     "a68f75497e960e24ef7ee5b4fa831259cf61e615a220a2795caf71666736dc25"),
    (("--group", "E8", "--format", "json"),
     "c481effda542e9b42b20fb5a7edb70005cc7043b096530d996f853fdd47ca0f4"),
]


# sha256 of the other reports as printed before the mod-2 classes came from
# the odd-weight count (the md report of "3 - lambda1" after it gained its
# "- minus:" line); a report format change must update these on purpose
REPORT_DIGESTS = [
    (("prop2", "--m", "3..12", "--format", "json"),
     "a9faef93dfd4ec1a9b88f4acb00c4396f485cbd67bb7de6497029d1b8934cb79"),
    (("prop2", "--m", "3..12", "--format", "md"),
     "8d91d4d87b75cb57b55b5449c8a3e8973125e1fb0c0e8d0fadfde27fbbc3e8f6"),
    (("prop2", "--m", "3..12", "--format", "plain"),
     "47910f2a2480316f643563485faeca11da8e2844a32aee530e169f72c0919d78"),
    # the top of the prop2 range, at the cutoffs it derives
    (("prop2", "--m", "13..16", "--format", "md"),
     "caee14679d8e97b9b513ea83f50fad6c6085e3ebd201be432de49a600a3128b8"),
    (("quillen", "--n", "6..16", "--format", "json"),
     "3fdbc448f9b6855e6433a0aedecf38065638904c7cdde470c7fa31d0e75ceeda"),
    (("quillen", "--n", "6..16", "--format", "md"),
     "8672532110434b8d83e2858599a9d72541733e1d7afcaea952ad4f56a7cd2f3c"),
    (("quillen", "--n", "6..16", "--format", "plain"),
     "e62e7fad4b84fa44b1aaf0c4689808ce520728924d3abb7493e7f737c2a3fb35"),
    (("restrict", "--n", "12", "--format", "json", "2*lambda1 + delta-"),
     "69e74cd4b38ebb8531331865ceae5beb365938a9d9dac914b0a26e1f1ffb69ef"),
    (("restrict", "--n", "12", "--format", "md", "2*lambda1 + delta-"),
     "94f0fd4ac347e81832f76ec238c969aab6bce5d95d7276c20c1c9e245d8e2db5"),
    (("restrict", "--n", "12", "--format", "plain", "2*lambda1 + delta-"),
     "fbad74eeba3246c2e7c86d779618ae43a1cebbe18f7b8eb8be1622a7b55bc101"),
    (("restrict", "--n", "9", "--format", "json", "3 + lambda1 + delta"),
     "3512acf6e8553521dad8d8ba9f7aeb82470bf92cdf2533ca8154cf381d92e6b4"),
    (("restrict", "--n", "9", "--format", "md", "3 + lambda1 + delta"),
     "691ed070de4ccf94f82f2b42ea71afafa8f4dbae11902176cceca5eb54e53426"),
    (("restrict", "--n", "9", "--format", "plain", "3 + lambda1 + delta"),
     "3c3322b8725b5348f277c9c77539647a08e7bd74c781cffa6bf2e8489821fc7e"),
    (("restrict", "--n", "12", "--format", "json", "3 - lambda1"),
     "94db5e99680b8cdb214202215c85687a9d56a3e85b4f631bc589f66f044ed22c"),
    (("restrict", "--n", "12", "--format", "md", "3 - lambda1"),
     "929213f7cffe0f48a7944ed380a808d191614c2b3f7ade0aecb4b489b4f11052"),
    (("restrict", "--n", "12", "--format", "plain", "3 - lambda1"),
     "6a4cd20846a4b10b7281c0acdaad0c1037d83f4d22819788f7782fdb1a2b68d6"),
    (("restrict", "--n", "12", "--cutoff", "64", "--format", "json", "3*delta+ - lambda2"),
     "f226cce748cce717026a31419bfdfc7f396f1a99519977b549dbfaa8f691205d"),
    (("restrict", "--n", "12", "--cutoff", "64", "--format", "plain", "3*delta+ - lambda2"),
     "8a541594e62206193c878d677632a207501e4ad842876db4019c6837d65ee083"),
    # theta_8 and theta_9 at n = 17 and 18; the benchmark's reference digest
    (("quillen", "--n", "6..18", "--full-j", "--format", "json"),
     "468b2710b946e1dc6851d87d583c77d198c665d2f9907d130c3e7b6985cfcd70"),
    # md and plain print the J degrees only, so --full-j up to n = 20 is cheap
    (("quillen", "--n", "17..20", "--full-j", "--format", "md"),
     "0db14658335227aac41d3537a8f75ef792f93400406a828dbb18b8f73501161a"),
    (("quillen", "--n", "17..20", "--full-j", "--format", "plain"),
     "b2813ef2c6341067ad42b027f383e5c8778d89b1a0bad5e51e7e4746091a0cad"),
    # the other two formats of the top of the prop2 range
    (("prop2", "--m", "13..16", "--format", "json"),
     "3e95cc6540254e83837142245536ee0123faf9199ececceeb2aa9fce40045d95"),
    (("prop2", "--m", "13..16", "--format", "plain"),
     "b037d76584f78ae77a86d2c9c8876f0b41719a0a2c70e4960befd1fb9bac8a50"),
    # big-integer Whitney products at n = 17 (1,522- and 1,633-bit coefficients):
    # a virtual class, a binomial series at weights +-2, and a genuine one
    (("restrict", "--n", "17", "--cutoff", "512", "--format", "json", "lambda1 - 3*lambda7"),
     "314c1d917c0611fbde41cb75ff2f64031dc99d0aeccf48137848fe3e226895b4"),
    (("restrict", "--n", "17", "--cutoff", "512", "--format", "json", "3*delta + 3*lambda6"),
     "1b4dde578ca3ed46177db3a71c4cdda0a62167353c04466875260ca27aaafa5f"),
    # h read off the spinor at the top of the quillen range, n = 897..1024
    (("quillen", "--n", "897..1024", "--format", "md"),
     "b130df8c2f4033bbe8b71ea47eaed119dfb87eeabc0a011a9f032c3e40bfdb54"),
    # the only pin that squares in a layout with fewer fields than n:
    # theta_1..theta_7 at n = 1024 have fields for w_1 .. w_d alone
    (("quillen", "--n", "1024", "--format", "json"),
     "b5e179eab1dc2f64d8c4eb1d04cc24265af2edf5c397f4cefadd61ea7a0761e6"),
]


# argvs the CLI must refuse: exit 2 with one error line holding the text, no
# traceback and under 400 bytes of stderr, whatever the length of the input.
# main's own argument errors come from the subcommand's parser, which names
# itself in that line and prints its own usage above it
REFUSALS = [
    # one usage error per subcommand
    (("prop2", "--m", "2..2"), "m range must sit inside 3..16, got 2..2"),
    (("theorem1", "--group", "G2"), "argument --group: invalid choice: 'G2'"),
    (("quillen", "--n", "5"), "n range must sit inside 6..1024, got 5..5"),
    (("restrict", "--n", "12", "--cutoff", "-1", "lambda1"), "cutoff must be positive, got -1"),
    (("restrict", "--n", "12"),
     "spinchern restrict: error: the following arguments are required: expression"),
    (("prop2", "--m", "1..2"), "m range must sit inside 3..16, got 1..2"),
    # 0, the largest cutoff refused: a series must reach u^1
    (("restrict", "--n", "12", "--cutoff", "0", "lambda1"), "cutoff must be positive, got 0"),
    # a report that cannot be written: an empty --out path is not stdout
    (("theorem1", "--out", ""), "error: [Errno 2] No such file or directory: ''"),
    # a derived cutoff and a product count of over 4,300 digits, more than Python prints
    (("restrict", "--n", "1024", "9" * 4250 + "*delta+"),
     "with cutoff a 4405-digit number may need a 8808-digit number coefficient products"),
    # a 5,000-digit numeral, refused by its length and not echoed
    (("restrict", "--n", "12", "9" * 5000 + "*lambda1"),
     "a 5000-digit number is over the 4300-digit limit"),
    (("quillen", "--n", "9" * 5000), "a 5000-digit number is over the 4300-digit limit"),
    (("restrict", "--n", "12", "--cutoff", "9" * 5000, "lambda1"),
     "a 5000-digit number is over the 4300-digit limit"),
    # a value that an error message names by its length
    (("quillen", "--n", "9" * 4300),
     "n range must sit inside 6..1024, got a 4300-digit number..a 4300-digit number"),
    (("restrict", "--n", "12", "--cutoff", "-" + "9" * 4300, "lambda1"),
     "cutoff must be positive, got a 4300-digit number"),
    (("prop2", "--m", "9" * 4300),
     "m range must sit inside 3..16, got a 4300-digit number..a 4300-digit number"),
    (("prop2", "--m", "3.." + "9" * 4300),
     "m range must sit inside 3..16, got 3..a 4300-digit number"),
    (("restrict", "--n", "9" * 4300, "lambda1"),
     "n must sit inside 6..1024, got a 4300-digit number"),
    (("restrict", "--n", "12", "lambda" + "9" * 4300),
     "lambda index a 4300-digit number is outside the presentation range 1..4"),
    (("restrict", "--n", "12", "x" * 5000), "cannot parse term a 5000-character string"),
    # argparse's own errors, after the fixed usage text of up to four lines
    (("restrict", "--n", "x" * 5000, "lambda1"),
     "argument --n: invalid int value: a 5000-character string"),
    (("restrict", "--n", "12", "--format", "x" * 5000, "lambda1"),
     "argument --format: invalid choice: a 5000-character string"),
    (("restrict", "--n", "12", "lambda1", "x" * 5000),
     "unrecognized arguments: a 5000-character string"),
    (("restrict", "--n", "12", "--cutoff", "x" * 5000, "lambda1"),
     "argument --cutoff: invalid int value: a 5000-character string"),
    (("theorem1", "--group", "x" * 5000),
     "argument --group: invalid choice: a 5000-character string"),
    (("x" * 5000,), "argument command: invalid choice: a 5000-character string"),
]


def run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """Run ``spinchern argv`` in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's refusals, --help and --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def matches(result: tuple[int, str, str], digest: str) -> bool:
    """Whether a run's (code, stdout, stderr) is a report with this sha256."""
    code, out, _ = result
    return code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def refused(result: tuple[int, str, str], text: str) -> bool:
    """Whether a run's (code, stdout, stderr) refuses it with this text."""
    code, _, err = result
    errors = [line for line in err.splitlines() if "error:" in line]
    return (code == 2 and len(errors) == 1 and text in errors[0]
            and "Traceback" not in err and len(err.encode()) < 400)


def named(argv: tuple[str, ...]) -> str:
    """``spinchern argv`` for a message, with each long value named by its length."""
    return " ".join(["spinchern"] + [shlex.quote(arg) if len(arg) <= MAX_SHOWN else shown(arg)
                                     for arg in argv])


def check() -> int:
    """Run every pin and refusal; name each argv that fails, and return 1 if one does."""
    pins = [(("theorem1", *argv), digest) for argv, digest in THEOREM1_DIGESTS] + REPORT_DIGESTS
    differ = [argv for argv, digest in pins if not matches(run(argv), digest)]
    not_refused = [argv for argv, text in REFUSALS if not refused(run(argv), text)]
    for argv in differ:
        print(f"differs from its pin: {named(argv)}", file=sys.stderr)
    for argv in not_refused:
        print(f"not refused as pinned: {named(argv)}", file=sys.stderr)
    print(f"{len(pins) - len(differ)}/{len(pins)} pinned reports match, "
          f"{len(REFUSALS) - len(not_refused)}/{len(REFUSALS)} pinned refusals hold")
    return 1 if differ or not_refused else 0


if __name__ == "__main__":
    sys.exit(check())
