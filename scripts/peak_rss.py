"""Run a command and log its peak resident set size, as GNU time's
``-f 'peak RSS %M KB'`` does where GNU time is not installed, and its
minor page faults.

    python scripts/peak_rss.py szeta report --t 99000 --x 20 --zeros z.txt

Writes ``peak RSS <n> KB`` to stderr after the command ends, n the largest
maximum RSS among the waited-for children (``ru_maxrss``, in KB on Linux),
then ``minor page faults <n>``, n the children's minor faults
(``ru_minflt``): pages first touched, and pages touched again after the
allocator returned them to the system and took them back.  Exits with the
command's exit code (128 + the signal if one ended it).  The child holds
this wrapper's own pages between fork and exec, so a command smaller than
the wrapper (about 14 MB) reads as the wrapper's size.
"""

import resource
import subprocess
import sys


def main(argv) -> int:
    rc = subprocess.call(argv)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(f"peak RSS {usage.ru_maxrss} KB", file=sys.stderr)
    print(f"minor page faults {usage.ru_minflt}", file=sys.stderr)
    return rc if rc >= 0 else 128 - rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
