"""Trial data ingestion, covariance estimation, and a synthetic generator.

The on-disk trial format ("EEGT") is a little-endian binary layout:

===========  ==========================================================
bytes        content
===========  ==========================================================
4            magic ``b"EEGT"``
u32          format version (currently 1)
u32 x 3      C (channels), N (samples), T (trials)
f64 x C*N*T  data tensor, channel-major: index (c, n, t) is stored at
             offset ((c*N + n)*T + t)
i8 x T       labels, each -1 or +1
u32 x T      session ids
C records    channel names, each a u32 byte length + UTF-8 bytes
===========  ==========================================================

Reads are strict: wrong magic or version, truncation, and trailing bytes
all raise :class:`~tssf.errors.FormatError`, and ``read(write(x))`` is
bit-exact.

A trial's covariance is ``X X^T / N`` of the trial with its channel means
removed, checked SPD at ``manifold.SPD_TOL``. Every fit first checks its
training set with ``_check_training_set``.
"""

import os
import stat
import struct
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import DegenerateModel, FormatError, InvalidInput, NotPositiveDefinite
from .manifold import ensure_spd

MAGIC = b"EEGT"
FORMAT_VERSION = 1


@dataclass
class TrialSet:
    """Band-passed epochs: a C x N x T tensor with per-trial metadata."""

    data: np.ndarray
    labels: np.ndarray
    session_ids: np.ndarray
    channel_names: list

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        self.session_ids = np.asarray(self.session_ids, dtype=np.uint32)
        if self.data.ndim != 3:
            raise InvalidInput("data must be a C x N x T tensor")
        c, _, t = self.data.shape
        if self.labels.shape != (t,) or self.session_ids.shape != (t,):
            raise InvalidInput("labels and session ids must have one entry per trial")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise InvalidInput("labels must be -1 or +1")
        if len(self.channel_names) != c:
            raise InvalidInput("need one channel name per channel")
        self.channel_names = [str(n) for n in self.channel_names]

    @property
    def n_channels(self):
        return self.data.shape[0]

    @property
    def n_samples(self):
        return self.data.shape[1]

    @property
    def n_trials(self):
        return self.data.shape[2]

    def trial(self, t):
        """The C x N data of trial ``t``."""
        return self.data[:, :, t]

    def subset(self, indices):
        """New TrialSet restricted to the given trial indices or boolean mask."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if indices.shape != (self.n_trials,):
                raise InvalidInput(f"mask has {indices.size} entries for {self.n_trials} trials")
            indices = np.flatnonzero(indices)
        elif indices.size == 0:
            indices = np.arange(0)  # np.asarray([]) is float
        elif indices.dtype.kind not in "iu":
            raise InvalidInput(f"trial indices must be integers or a mask, got {indices.dtype}")
        return TrialSet(
            data=np.take(self.data, indices, axis=2),  # one C-contiguous copy
            labels=self.labels[indices],
            session_ids=self.session_ids[indices],
            channel_names=list(self.channel_names),
        )


def _check_training_set(data, labels, trial_axis=0):
    """Check a training set before a fit does any other work.

    ``data`` is a (T, C, C) covariance stack, or with ``trial_axis=2`` a
    C x N x T trial tensor; ``labels`` holds one label per trial, each -1
    or +1, and both must occur. Raises ``InvalidInput``, or
    ``DegenerateModel`` for a single class; returns both as arrays.
    """
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels)
    if data.ndim != 3 or (trial_axis == 0 and data.shape[1] != data.shape[2]):
        want = "(T, C, C) covariance stack" if trial_axis == 0 else "C x N x T tensor"
        raise InvalidInput(f"training data of shape {data.shape} is not a {want}")
    if labels.shape != (data.shape[trial_axis],):
        raise InvalidInput(f"need one label per trial, got {labels.shape} for {data.shape}")
    _check_labels(labels)
    return data, labels


def _check_labels(labels):
    # the label contract of every fit, the linear models' included: each
    # label -1 or +1 (the first bad one named), and both classes present
    bad = ~np.isin(labels, (-1, 1))
    if bad.any():
        raise InvalidInput(f"labels must be -1 or +1, got {labels[bad][0].item()!r}")
    if np.unique(labels).size < 2:
        raise DegenerateModel("training labels hold a single class; need both -1 and +1")


def write_trials(trialset, path):
    """Serialize a TrialSet in the EEGT binary format."""
    c, n, t = trialset.data.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIII", FORMAT_VERSION, c, n, t))
        # the tensor's own buffer when it is already C-contiguous "<f8"
        fh.write(np.ascontiguousarray(trialset.data, dtype="<f8").data)
        fh.write(trialset.labels.astype("<i1").tobytes())
        fh.write(trialset.session_ids.astype("<u4").tobytes())
        for name in trialset.channel_names:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)


def read_trials(path):
    """Read an EEGT file; raises FormatError on any structural problem.

    The data tensor is read straight into its array, so the file's bytes
    are not held a second time.
    """
    with open(path, "rb") as fh:

        def take(nbytes, what):
            raw = fh.read(nbytes)
            if len(raw) < nbytes:
                raise FormatError(f"truncated file: {what} needs {nbytes} bytes")
            return raw

        if take(4, "magic") != MAGIC:
            raise FormatError("bad magic; not an EEGT file")
        version, c, n, t = struct.unpack("<IIII", take(16, "header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}")
        nbytes = 8 * c * n * t
        truncated = FormatError(f"truncated file: data tensor needs {nbytes} bytes")
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and nbytes > info.st_size - fh.tell():
            raise truncated  # before a corrupt header's sizes allocate anything
        data = np.empty((c, n, t), dtype="<f8")
        if fh.readinto(data) != nbytes:
            raise truncated
        labels = np.frombuffer(take(t, "labels"), dtype="<i1").copy()
        sessions = np.frombuffer(take(4 * t, "session ids"), dtype="<u4").copy()
        names = []
        for i in range(c):
            (length,) = struct.unpack("<I", take(4, f"channel name {i} length"))
            names.append(take(length, f"channel name {i}").decode("utf-8"))
        trailing = len(fh.read())
    if trailing:
        raise FormatError(f"{trailing} trailing bytes after channel names")
    return TrialSet(data=data, labels=labels, session_ids=sessions, channel_names=names)


def read_manifest(path):
    """Parse a manifest: one ``<session id> <file path>`` pair per line.

    Relative paths are resolved against the manifest's directory.
    ``#`` starts a comment line.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise FormatError(f"manifest line {lineno}: expected '<session> <path>'")
            try:
                session = int(parts[0])
            except ValueError:
                raise FormatError(f"manifest line {lineno}: bad session id") from None
            if session < 0:
                raise FormatError(f"manifest line {lineno}: session id must be >= 0")
            file_path = parts[1]
            if not os.path.isabs(file_path):
                file_path = os.path.join(base, file_path)
            entries.append((session, file_path))
    if not entries:
        raise FormatError("manifest lists no files")
    return entries


def load_manifest(path):
    """Load every file in a manifest into one TrialSet (one file = one session)."""
    sets = []
    for session, file_path in read_manifest(path):
        ts = read_trials(file_path)
        ts.session_ids[:] = session
        first = sets[0] if sets else ts
        if ts.data.shape[:2] != first.data.shape[:2] or ts.channel_names != first.channel_names:
            raise InvalidInput(
                f"manifest file {file_path} disagrees with the first file "
                "on channels, channel names or samples"
            )
        sets.append(ts)
    return TrialSet(
        data=np.concatenate([ts.data for ts in sets], axis=2),
        labels=np.concatenate([ts.labels for ts in sets]),
        session_ids=np.concatenate([ts.session_ids for ts in sets]),
        channel_names=list(first.channel_names),
    )


def _covariance_stack(data):
    """Per-trial sample covariances of a C x N x T tensor, shape (T, C, C).

    The covariance arithmetic of the whole library, without the SPD check
    (an extra eigendecomposition per trial that online prediction cannot
    afford): per-channel means are removed, and the product is divided by
    N. ``x @ x.T`` goes through BLAS ``syrk``, so every covariance is
    exactly symmetric.
    """
    n = data.shape[1]
    x = data.transpose(2, 0, 1).copy()  # (T, C, N), C-contiguous for BLAS
    x -= x.sum(axis=2, keepdims=True) / n  # bit-identical to mean(), cheaper
    covs = x @ x.swapaxes(1, 2)
    covs /= n
    return covs


# trials per block of _spd_covariances are chosen so that a block's
# (T, C, N) copy stays near this size
_BLOCK_BYTES = 4 << 20


def _spd_covariances(data):
    """:func:`_covariance_stack` plus one vectorized SPD check of the stack.

    The stack is computed in blocks of trials, so the transposed copy of
    the data stays at a few MiB however many trials there are; each
    covariance is the same bits as in one :func:`_covariance_stack` call.
    """
    c, n, t = data.shape
    block = max(1, _BLOCK_BYTES // (8 * c * n))
    covs = np.empty((t, c, c))
    for lo in range(0, t, block):
        covs[lo : lo + block] = _covariance_stack(data[:, :, lo : lo + block])
    try:
        return ensure_spd(covs, name="covariance")
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(
            f"{exc} (rank-deficient estimate: use more samples per trial or drop constant channels)"
        ) from exc


def empirical_covariance(trial):
    """Sample covariance of one C x N trial: ``X X^T / N`` of the centred X.

    Per-channel means are removed first. The result is validated SPD;
    rank-deficient estimates are rejected.
    """
    x = np.asarray(trial, dtype=float)
    if x.ndim != 2:
        raise InvalidInput("trial must be a C x N matrix")
    return _spd_covariances(x[:, :, None])[0]


def covariances(trialset):
    """Per-trial covariances of a TrialSet, shape (T, C, C), trial order."""
    return _spd_covariances(trialset.data)


def fir_bandpass(trialset, low_hz=8.0, high_hz=32.0, fs_hz=250.0, taps=129):
    """Zero-phase FIR band-pass of every channel of every trial.

    A Hamming-windowed sinc band-pass is applied forward and time-reversed
    (no phase distortion; the amplitude response is squared). ``low_hz``
    and ``high_hz`` are passband edges: the Hamming transition bands
    extend outside them, so in-band tones keep their amplitude.
    """
    if not (0.0 < low_hz < high_hz < fs_hz / 2.0):
        raise InvalidInput("need 0 < low < high < fs/2")
    if taps < 3 or taps % 2 == 0:
        raise InvalidInput("taps must be odd and >= 3")
    import scipy.signal  # on first use: it takes most of a second to load

    n = trialset.n_samples
    transition = 3.3 * fs_hz / taps  # approximate Hamming transition width
    cut_low = max(low_hz - transition / 2.0, 0.05 * low_hz)
    cut_high = min(high_hz + transition / 2.0, fs_hz / 2.0 - 0.05 * (fs_hz / 2.0 - high_hz))
    coef = scipy.signal.firwin(
        taps, [cut_low, cut_high], pass_zero=False, fs=fs_hz, window="hamming"
    )
    padlen = min(3 * taps, n - 1)
    filtered = scipy.signal.filtfilt(coef, [1.0], trialset.data, axis=1, padlen=padlen)
    return replace(trialset, data=filtered)


@dataclass
class SynthConfig:
    """Linear-mixing generator: ``X = A @ sources + noise``.

    The first ``n_discriminative`` sources carry class-dependent variances
    (``var_pos`` for label +1, ``var_neg`` for label -1); the remaining
    sources share ``background_variance``. ``nonstationarity`` rotates the
    mixing matrix by a random per-trial rotation of that magnitude (radians).
    """

    channels: int = 8
    samples: int = 256
    trials_per_class: int = 100
    seed: int = 0
    n_discriminative: int = 2
    var_pos: tuple = (4.0, 1.0)
    var_neg: tuple = (1.0, 4.0)
    background_variance: float = 1.0
    noise_sigma: float = 0.0
    mixing: str = "random"
    nonstationarity: float = 0.0
    sessions: int = 1

    def validate(self):
        if self.channels < 1 or self.samples < 1 or self.trials_per_class < 1:
            raise InvalidInput("channels, samples, trials_per_class must be >= 1")
        if not 1 <= self.n_discriminative <= self.channels:
            raise InvalidInput("n_discriminative must be in [1, channels]")
        if len(self.var_pos) != self.n_discriminative or len(self.var_neg) != self.n_discriminative:
            raise InvalidInput("var_pos/var_neg need one variance per discriminative source")
        if min(self.var_pos) <= 0 or min(self.var_neg) <= 0 or self.background_variance <= 0:
            raise InvalidInput("source variances must be positive")
        if self.noise_sigma < 0:
            raise InvalidInput("noise_sigma must be >= 0")
        if self.nonstationarity < 0:
            raise InvalidInput("nonstationarity must be >= 0")
        if self.mixing not in ("random", "identity"):
            raise InvalidInput("mixing must be 'random' or 'identity'")
        if self.sessions < 1:
            raise InvalidInput("sessions must be >= 1")
        return self

    @classmethod
    def from_text(cls, path):
        """Read a config file of ``key: value`` lines (# for comments).

        Each value is read by the type of its field's default: a tuple is
        a list of numbers (comma or space separated), a str is taken as
        written, and a float or int must parse as one.
        """
        fields = cls.__dataclass_fields__
        kwargs = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if ":" not in line:
                    raise InvalidInput(f"config line {lineno}: expected 'key: value'")
                key, _, value = line.partition(":")
                key, value = key.strip(), value.strip()
                if key not in fields:
                    raise InvalidInput(f"config line {lineno}: unknown key {key!r}")
                kind = type(fields[key].default)
                try:
                    if kind is tuple:
                        kwargs[key] = tuple(float(v) for v in value.replace(",", " ").split())
                    else:
                        kwargs[key] = kind(value)
                except ValueError:
                    raise InvalidInput(f"config key {key!r} has a bad value {value!r}") from None
        return cls(**kwargs).validate()


def synth_generate(cfg):
    """Generate a TrialSet from a SynthConfig; same seed, same bytes.

    With zero noise and identity mixing, per-class sample covariances
    converge to the configured diagonal source variances; with a mixing
    matrix A they converge to ``A @ diag(vars) @ A.T``.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    c, n = cfg.channels, cfg.samples
    t_total = 2 * cfg.trials_per_class

    if cfg.mixing == "identity":
        mix = np.eye(c)
    else:
        # well-conditioned by construction: singular values in [0.5, 1.5]
        u, _ = np.linalg.qr(rng.standard_normal((c, c)))
        v, _ = np.linalg.qr(rng.standard_normal((c, c)))
        mix = (u * rng.uniform(0.5, 1.5, size=c)) @ v.T

    stds = {
        1: np.sqrt(np.concatenate([cfg.var_pos, np.full(c - cfg.n_discriminative, cfg.background_variance)])),
        -1: np.sqrt(np.concatenate([cfg.var_neg, np.full(c - cfg.n_discriminative, cfg.background_variance)])),
    }
    labels = np.where(np.arange(t_total) % 2 == 0, 1, -1).astype(np.int8)
    session_ids = ((np.arange(t_total) // 2) % cfg.sessions).astype(np.uint32)

    data = np.empty((c, n, t_total))
    for t in range(t_total):
        sources = rng.standard_normal((c, n)) * stds[int(labels[t])][:, None]
        mix_t = mix
        if cfg.nonstationarity > 0:
            g = rng.standard_normal((c, c))
            mix_t = mix @ scipy.linalg.expm(cfg.nonstationarity * 0.5 * (g - g.T))
        x = mix_t @ sources
        if cfg.noise_sigma > 0:
            x = x + cfg.noise_sigma * rng.standard_normal((c, n))
        data[:, :, t] = x

    names = [f"ch{i:02d}" for i in range(c)]
    return TrialSet(data=data, labels=labels, session_ids=session_ids, channel_names=names)
