"""Starts the benchmark's measured processes from a small process.

Usage: python perfbench/launcher.py  (driven by run.py over stdin/stdout)

The peak resident memory that `wait4` reports for a process counts the
memory of the process that started it: exec keeps the high-water mark of
the memory image it replaces, which for a child started from a large
process is the parent's.  So `run.py`, whose own memory holds results and
references, starts this launcher once and has it start every measured
process, which then inherits only the launcher's interpreter.

Each line on stdin is a JSON list `[argv, cwd, env, stdout_path,
stderr_path]`.  For each, the launcher starts `argv` in its own process
group, with stdin from /dev/null, writes the pid as one line, waits for the
process, and writes one JSON line `[exit_code, user_s, system_s,
max_rss_kb]`; the times and peak memory cover the process and every
process it waited for.  It exits at the end of stdin.
"""

import json
import os
import sys


def start(argv, cwd, env, stdout_path, stderr_path):
    pid = os.fork()
    if pid:
        return pid
    try:  # the child: never returns
        os.setpgid(0, 0)
        os.chdir(cwd)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
        os.dup2(os.open(stdout_path, flags, 0o644), 1)
        os.dup2(os.open(stderr_path, flags, 0o644), 2)
        os.execve(argv[0], argv, env)
    finally:
        os._exit(127)


def main():
    for line in sys.stdin:
        pid = start(*json.loads(line))
        print(pid, flush=True)
        _, status, usage = os.wait4(pid, 0)
        print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_utime,
                          usage.ru_stime, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
