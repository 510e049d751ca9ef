"""trajectory.csv formatted in a forked second process while a run integrates.

A single CLI run loads this module only when it streams (cli._formatter
decides), so no sweep and no library run compiles it. The bytes are those
of cli.write_trajectory_csv: the child formats each block of rows with
cli._csv_chunk, the one chunk function that writer also uses.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from . import cli
from .sim import _BLOCK_ROWS, _ROW, RunStatus, ScenarioConfig, Trajectory

# One streamed row: its table row, then its reset count.
_STREAM_ROW_BYTES = _ROW.size + 8
# Linux's default limit on the size an unprivileged process may give a pipe.
_PIPE_BYTES = 1 << 20


class Formatter:
    """trajectory.csv formatted in a forked child while the run integrates.

    ``send`` is integrate's on_rows callback: it writes each block of table
    rows, then their reset counts, to a pipe. The child reads the blocks
    back, builds each one's Trajectory with the constructor integrate
    uses, so the indicators come from control._derived_values, and
    appends its ``cli._csv_chunk`` to an unlinked temporary file, holding
    one block at a time.
    ``end_rows`` closes the pipe after the run; ``write`` waits for the
    child and copies the file to the path; ``close`` releases what is left,
    reaping the child. Raises OSError when the file, the pipe or the
    process cannot be made.
    """

    def __init__(self, scenario: ScenarioConfig) -> None:
        self.tmp = tempfile.TemporaryFile()
        fds = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            self.tmp.close()
            raise
        if self.pid == 0:
            os.close(write_fd)
            _format_rows(scenario, read_fd, self.tmp)
        os.close(read_fd)
        # A pipe that holds several blocks lets the run go on while the
        # child formats; at Linux's default 64 KiB each block stalls the run.
        with contextlib.suppress(ImportError, AttributeError, OSError):
            import fcntl

            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        self.pipe = open(write_fd, "wb")

    def send(self, rows: np.ndarray, reset_counts: np.ndarray) -> None:
        if self.pipe is None:
            return
        try:
            self.pipe.write(rows)
            self.pipe.write(reset_counts)
            self.pipe.flush()
        except BrokenPipeError:  # the child is gone; write reports it
            self.end_rows()

    def end_rows(self) -> None:
        if self.pipe is not None:
            pipe, self.pipe = self.pipe, None
            try:
                pipe.close()
            except BrokenPipeError:  # the fd is closed all the same
                pass

    def _reap(self) -> int:
        """The child's exit code, -N for signal N, once it has ended."""
        self.end_rows()
        pid, self.pid = self.pid, None
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def write(self, path: Path) -> None:
        with open(path, "wb") as fh:
            code = self._reap()
            if code == 0:
                self.tmp.seek(0)
                shutil.copyfileobj(self.tmp, fh, 1 << 20)
        if code != 0:
            path.unlink()
            how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
            raise OSError(f"cannot write {str(path)!r}: its formatter process {how}")

    def close(self) -> None:
        if self.pid is not None:
            self._reap()
        self.tmp.close()


def _format_rows(scenario: ScenarioConfig, read_fd: int, out) -> None:
    """The formatter child: the header, then one ``cli._csv_chunk`` per
    block read from read_fd, appended to out. Never returns: the process
    ends with code 0 once the pipe is closed and every row is written, and
    with code 1 on any error, with no traceback."""
    code = 1
    try:
        with open(read_fd, "rb") as pipe:
            out.write(cli._CSV_HEADER)
            while data := pipe.read(_BLOCK_ROWS * _STREAM_ROW_BYTES):
                n, torn = divmod(len(data), _STREAM_ROW_BYTES)
                if torn:
                    raise ValueError(f"{torn} bytes of a torn row")
                rows = np.frombuffer(data, count=n * _ROW.size // 8).reshape(n, -1)
                counts = np.frombuffer(data, dtype=np.int64, offset=n * _ROW.size)
                block = Trajectory(scenario, RunStatus.OK, rows, counts, ())
                out.write(cli._csv_chunk(block, slice(None)))
            out.flush()
        code = 0
    finally:
        os._exit(code)
