"""Independent brute-force oracles used by the test suite.

Everything here is written as plainly as possible (explicit loops, no
shared code with the package) so test expectations are computed by a
second, independent route.
"""
from math import gcd

import numpy as np
from scipy.signal import get_window, lfilter, sosfilt, sosfilt_zi, upfirdn
from scipy.stats import norm


def frame_energy_timedomain(frame_windowed):
    """Windowed-frame energy by direct summation."""
    total = 0.0
    for v in frame_windowed:
        total += float(v) * float(v)
    return total


def frame_energy_fullfft(frame_windowed, fft_size):
    """Spectral energy of one frame via the full (two-sided) DFT and Parseval."""
    spec = np.fft.fft(frame_windowed, n=fft_size)
    total = 0.0
    for v in spec:
        total += abs(v) ** 2
    return total / fft_size


def overlap_add_loops(frames, hop):
    """Overlap-add one frame at a time: frame m adds into out[m*hop : m*hop + width]."""
    n_frames, width = frames.shape
    out = np.zeros((n_frames - 1) * hop + width)
    for m in range(n_frames):
        out[m * hop : m * hop + width] += frames[m]
    return out


def istft_loops(spec_frames, fft_size, hop, win_length):
    """Least-squares overlap-add inverse STFT with per-frame loops: the
    Hann-windowed frames overlap-added, divided by the overlap-added squared
    window (floored at 1e-12)."""
    win = get_window("hann", win_length, fftbins=True).astype(np.float64)
    frames = np.fft.irfft(spec_frames, n=fft_size, axis=1)[:, :win_length]
    windowed = np.array([frame * win for frame in frames])
    squares = np.array([win * win for _ in frames])
    return overlap_add_loops(windowed, hop) / np.maximum(overlap_add_loops(squares, hop), 1e-12)


def mel_apply_loops(mag, weights):
    """Triple-loop mel projection: out[f, m] = sum_k weights[m, k] * mag[f, k]."""
    n_frames, n_bins = mag.shape
    n_mels = weights.shape[0]
    out = np.zeros((n_frames, n_mels))
    for f in range(n_frames):
        for m in range(n_mels):
            acc = 0.0
            for k in range(n_bins):
                acc += weights[m, k] * mag[f, k]
            out[f, m] = acc
    return out


def cosine_seq_similarity_loops(a, b, tau):
    """Per-frame cosine similarity averaged over frames, scaled by 1/tau."""
    n = a.shape[0]
    total = 0.0
    for i in range(n):
        na = np.sqrt(float(np.dot(a[i], a[i])))
        nb = np.sqrt(float(np.dot(b[i], b[i])))
        total += float(np.dot(a[i], b[i])) / (tau * max(na, 1e-12) * max(nb, 1e-12))
    return total / n


def partition_loops(anchor_idx, members, tau):
    """H(z): sum of exp similarities to every member minus the self term."""
    z = members[anchor_idx]
    total = 0.0
    for m, other in enumerate(members):
        total += np.exp(cosine_seq_similarity_loops(z, other, tau))
    total -= np.exp(cosine_seq_similarity_loops(z, z, tau))
    return total


def contrastive_loss_loops(bona, spoof, tau):
    """Direct evaluation of the two-class contrastive feature loss."""
    members = list(bona) + list(spoof)
    labels = [1] * len(bona) + [0] * len(spoof)
    loss = 0.0
    for k, zk in enumerate(members):
        positives = [m for m in range(len(members)) if labels[m] == labels[k] and m != k]
        if not positives:
            continue
        h = partition_loops(k, members, tau)
        for p in positives:
            f_kp = cosine_seq_similarity_loops(zk, members[p], tau)
            loss += -np.log(np.exp(f_kp) / h) / len(positives)
    return loss


def eer_bruteforce(bona_scores, spoof_scores):
    """Exhaustive-threshold EER with linear interpolation at the crossing.

    Operating points: FRR(t) = P(bona < t), FAR(t) = P(spoof >= t) at every
    unique score, plus virtual endpoints (FRR 0, FAR 1) and (FRR 1, FAR 0).
    The EER is read at the first sign change of FRR - FAR, linearly
    interpolated between the bracketing points; an exact zero takes the
    lower threshold's operating point.
    """
    bona = list(bona_scores)
    spoof = list(spoof_scores)
    thresholds = sorted(set(bona) | set(spoof))
    points = [(0.0, 1.0)]
    for t in thresholds:
        frr = sum(1 for s in bona if s < t) / len(bona)
        far = sum(1 for s in spoof if s >= t) / len(spoof)
        points.append((frr, far))
    points.append((1.0, 0.0))
    for i in range(len(points)):
        frr, far = points[i]
        if frr - far == 0.0:
            return frr
        if frr - far > 0.0:
            pf, pa = points[i - 1]
            d1 = pf - pa
            d2 = frr - far
            alpha = -d1 / (d2 - d1)
            return pf + alpha * (frr - pf)
    return 0.5


def f0_autocorrelation_oracle(x, sample_rate, fmin=60.0, fmax=450.0):
    """Plain autocorrelation-peak F0 estimate with parabolic refinement."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    lag_lo = int(sample_rate / fmax)
    lag_hi = min(int(sample_rate / fmin), len(x) - 2)
    vals = {}
    best_val = -np.inf
    for lag in range(lag_lo, lag_hi + 1):
        v = float(np.dot(x[:-lag], x[lag:])) / (len(x) - lag)
        vals[lag] = v
        best_val = max(best_val, v)
    best_lag = min(lag for lag, v in vals.items() if v >= 0.95 * best_val)
    def ac(lag):
        return float(np.dot(x[:-lag], x[lag:]))
    lag = float(best_lag)
    if lag_lo < best_lag < lag_hi:
        y0, y1, y2 = ac(best_lag - 1), ac(best_lag), ac(best_lag + 1)
        denom = y0 - 2 * y1 + y2
        if abs(denom) > 1e-12:
            lag = best_lag + 0.5 * (y0 - y2) / denom
    return sample_rate / lag


def two_proportion_p_value(eer1, n1, eer2, n2):
    """Two-sided two-proportion z-test via scipy's normal CDF."""
    c1 = round(eer1 * n1)
    c2 = round(eer2 * n2)
    pooled = (c1 + c2) / (n1 + n2)
    if pooled <= 0.0 or pooled >= 1.0:
        return 1.0 if eer1 == eer2 else 0.0
    z = (eer1 - eer2) / np.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    return float(2.0 * (1.0 - norm.cdf(abs(z))))


def scalar_adam_oracle(x0, grad_fn, steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain-float Adam on a scalar; returns the iterate trajectory."""
    x = float(x0)
    m = 0.0
    v = 0.0
    traj = [x]
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (v_hat**0.5 + eps)
        traj.append(x)
    return traj


def adam_per_tensor(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam at step ``t`` (1-based), one tensor at a time and
    in place: ``params``, ``grads``, ``m`` and ``v`` map the same names to
    arrays."""
    for name, g in grads.items():
        m[name] *= beta1
        m[name] += (1 - beta1) * g
        v[name] *= beta2
        v[name] += (1 - beta2) * g * g
        m_hat = m[name] / (1 - beta1**t)
        v_hat = v[name] / (1 - beta2**t)
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def holm_bonferroni_manual(p_values, alpha):
    """Sequential step-down rejection, spelled out."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    reject = [False] * m
    for rank, idx in enumerate(order):
        threshold = alpha / (m - rank)
        if p_values[idx] <= threshold:
            reject[idx] = True
        else:
            break
    return reject


# Copies of the per-frame LPC analysis and of the Griffin-Lim loop as they
# were before both were batched, so the batched code is held to them byte
# for byte. The constants repeat spoofcm.lpc's; a ValueError stands for its
# ConfigError.
LPC_BANDWIDTH_EXPANSION = 0.996
LPC_F0_MIN = 60.0
LPC_F0_MAX = 400.0
LPC_SILENCE_RMS = 1e-6


def lpc_analyze_loops(frame, order):
    """Levinson-Durbin on one frame: (coefficients, gain)."""
    frame = np.asarray(frame, dtype=np.float64)
    if len(frame) <= 2 * order:
        raise ValueError(f"frame length {len(frame)} must exceed 2 x order ({2 * order})")
    r = np.correlate(frame, frame, mode="full")[len(frame) - 1 : len(frame) + order]
    return levinson_loops(r, len(frame))


def levinson_loops(r, n_samples):
    """The recursion of lpc_analyze_loops on the autocorrelation r[0..order]."""
    order = len(r) - 1
    if r[0] <= 0.0:
        return np.zeros(order), 1.0
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    for i in range(1, order + 1):
        acc = r[i] + a[1:i] @ r[i - 1 : 0 : -1]
        k = -acc / err
        a[1 : i + 1] = a[1 : i + 1] + k * a[i - 1 :: -1][:i]
        err *= 1.0 - k * k
        if err <= 0.0:  # numerically singular autocorrelation
            break
    a = a * LPC_BANDWIDTH_EXPANSION ** np.arange(order + 1)
    gain = float(np.sqrt(max(err, 0.0) / n_samples))
    return -a[1:], gain


def estimate_f0_loops(frame, sample_rate):
    """F0 in Hz of one frame by normalized autocorrelation; 0.0 when unvoiced."""
    frame = np.asarray(frame, dtype=np.float64)
    if len(frame) < int(0.025 * sample_rate):
        raise ValueError(f"frame must span >= 25 ms, got {len(frame)} samples")
    x = frame - frame.mean()
    energy = x @ x
    if energy < LPC_SILENCE_RMS**2 * len(x):
        return 0.0
    lag_lo = max(2, int(sample_rate / LPC_F0_MAX))
    lag_hi = min(int(sample_rate / LPC_F0_MIN), len(x) - 2)
    full = np.correlate(x, x, mode="full")[len(x) - 1 :]
    cum = np.concatenate([[0.0], np.cumsum(x * x)])
    lags = np.arange(lag_lo, lag_hi + 1)
    head = cum[len(x) - lags] - cum[0]
    tail = cum[len(x)] - cum[lags]
    ncc = full[lags] / np.maximum(np.sqrt(head * tail), 1e-12)
    peak = float(ncc.max())
    if peak <= 0.5:
        return 0.0
    # shortest lag close to the global peak: avoids octave-down errors
    best = int(np.argmax(ncc >= 0.95 * peak))
    lag = lags[best]
    if 0 < best < len(ncc) - 1:  # parabolic refinement
        y0, y1, y2 = ncc[best - 1], ncc[best], ncc[best + 1]
        denom = y0 - 2 * y1 + y2
        if abs(denom) > 1e-12:
            lag = lag + 0.5 * (y0 - y2) / denom
    return float(sample_rate / lag)


def griffin_lim_loops(mag, cfg, sample_rate, iters, alpha=0.99):
    """Fast Griffin-Lim (momentum alpha) through the public, checking stft and
    istft on every iteration; alpha = 0 is plain Griffin-Lim."""
    from spoofcm.dsp import ComplexSpectrogram, istft, stft

    beta = alpha / (1.0 + alpha)
    mag = np.asarray(mag, dtype=np.float64)
    wave = istft(ComplexSpectrogram(mag.astype(np.complex128), cfg, sample_rate))
    prev = np.zeros(mag.shape, dtype=np.complex128)
    for _ in range(iters):
        rebuilt = stft(wave, cfg).frames
        angles = rebuilt - beta * prev
        angles *= mag / np.maximum(np.abs(angles), 1e-12)
        wave = istft(ComplexSpectrogram(angles, cfg, sample_rate))
        prev = rebuilt
    return wave


def phase_random_exact_length(x, sample_rate, seed, n_sections, radius_range, color_db, color_from):
    """spoofcm.vocoders' phasernd channel as it was before it colored at a
    fast FFT length: the all-pass cascade through scipy's sosfilt, then the
    coloration by an rfft/irfft pair at the signal's own length."""
    from spoofcm.util import derive_seed

    sr = sample_rate
    rng = np.random.default_rng(derive_seed(seed, "phasernd-allpass"))
    sections = []
    for _ in range(n_sections):
        f0 = rng.uniform(100.0, 0.95 * sr / 2.0)
        r = rng.uniform(*radius_range)
        c = 2.0 * r * np.cos(2.0 * np.pi * f0 / sr)
        sections.append([r * r, -c, 1.0, 1.0, -c, r * r])
    y = sosfilt(np.array(sections), x)
    spec = np.fft.rfft(y)
    freqs = np.arange(len(spec)) * sr / len(y)
    rng = np.random.default_rng(derive_seed(seed, "phasernd-color"))
    shape = np.zeros_like(freqs)
    fmax = max(freqs[-1], 1.0)
    for k in range(1, 4):
        shape += rng.uniform(-1, 1) * np.sin(2 * np.pi * k * freqs / fmax + rng.uniform(0, 2 * np.pi))
    shape /= max(np.abs(shape).max(), 1e-12)
    lo, hi = color_db
    weight = 1.0 / (1.0 + np.exp(-(freqs - color_from) / 300.0))
    gain = 10.0 ** ((lo + (hi - lo) * weight) * shape / 20.0)
    return np.fft.irfft(spec * gain, n=len(y))


def lpc_frame_synthesis_loops(excitation, active, coefs, gains, levels, win, hop):
    """The per-frame synthesis loop of spoofcm.lpc.lpc_resynthesize as it was
    before its normalization and level matching were batched over frames."""
    frame_len = len(win)
    out = np.zeros(len(excitation))
    env = np.zeros(len(excitation))
    for j, m in enumerate(active):
        s = m * hop
        exc = excitation[s : s + frame_len].copy()
        exc -= exc.mean()
        exc = exc / max(np.sqrt(np.mean(exc**2)), 1e-12) * gains[j]
        synth = lfilter([1.0], np.concatenate([[1.0], -coefs[j]]), exc)
        synth_rms = np.sqrt(np.mean((synth * win) ** 2))
        synth = synth * (levels[j] / max(synth_rms, 1e-12))
        out[s : s + frame_len] += synth * win * win
        env[s : s + frame_len] += win * win
    return out / np.maximum(env, 1e-12)


def resample_upfirdn(x, sample_rate, target_sr, resample_filter):
    """Rational resampling through scipy's upfirdn, as spoofcm.dsp.resample
    computed it before it ran per phase: the filter from
    resample_filter(up, down), delayed by zeros to a whole number of output
    samples, over the input with zeros appended."""
    g = gcd(sample_rate, target_sr)
    up, down = target_sr // g, sample_rate // g
    h = resample_filter(up, down)
    center = (len(h) - 1) // 2
    n_pre = (-center) % down
    h_padded = np.concatenate([np.zeros(n_pre), h])
    offset = (center + n_pre) // down
    n_out = int(round(len(x) * target_sr / sample_rate))
    need_in = ((offset + n_out) * down + len(h_padded)) // up + 1
    x = np.concatenate([x, np.zeros(max(0, need_in - len(x)))])
    return upfirdn(h_padded, x, up=up, down=down)[offset : offset + n_out]


def filtfilt_sosfilt(sos, x):
    """Zero-phase filtering built from scipy's sosfilt and sosfilt_zi, as
    spoofcm.dsp.filtfilt describes it: 6 samples per section of reflective
    padding at both ends; each pass starts at the steady state times its
    first sample; forward-then-backward and backward-then-forward averaged."""
    pad = 6 * len(sos)
    padded = np.pad(x, pad, mode="reflect")
    zi = sosfilt_zi(sos)

    def two_pass(v):
        y, _ = sosfilt(sos, v, zi=zi * v[0])
        y, _ = sosfilt(sos, y[::-1], zi=zi * y[-1])
        return y[::-1]

    y = 0.5 * (two_pass(padded) + two_pass(padded[::-1])[::-1])
    return y[pad:-pad]


def forward_backward_frames(members, labels, p, mode="ce", levels="both", temperature=0.07):
    """The model's loss, loss parts and gradients with the frame-level
    feature sequence X = A1 @ W2.T + b2 built for every member and pooled
    after W2: the utterance contrastive term runs on the means of X and its
    gradient is repeated over the frames, the CE gradient is tiled over the
    frames, and the contrastive gradient is written with einsum."""

    def lrelu(z):
        return np.where(z > 0, z, 0.01 * z)

    def dlrelu(z):
        return np.where(z > 0, 1.0, 0.01)

    def cf_core(seqs):
        stack = np.stack(seqs)
        norms = np.linalg.norm(stack, axis=2, keepdims=True)
        unit = stack / np.maximum(norms, 1e-12)
        b, n_frames = stack.shape[:2]
        sims = np.einsum("and,bnd->ab", unit, unit) / (n_frames * temperature)
        lab = np.asarray(labels)
        value = 0.0
        anchor_grad = np.zeros((b, b))
        for k in range(b):
            others = np.arange(b) != k
            positives = others & (lab == lab[k])
            n_pos = int(positives.sum())
            row = sims[k, others]
            m = row.max()
            lse = m + np.log(np.sum(np.exp(row - m)))
            value += float(n_pos * lse - sims[k, positives].sum()) / n_pos
            soft = np.zeros(b)
            soft[others] = np.exp(sims[k, others] - lse)
            soft[positives] -= 1.0 / n_pos
            anchor_grad[k] = soft
        pair_weight = anchor_grad + anchor_grad.T
        cosines = np.einsum("and,mnd->amn", unit, unit)
        term_other = np.einsum("am,mnd->and", pair_weight, unit)
        term_self = np.einsum("am,amn->an", pair_weight, cosines)[:, :, None] * unit
        grads = (term_other - term_self) / (n_frames * temperature * np.maximum(norms, 1e-12))
        return value, list(grads)

    caches = []
    for base in members:
        B = (np.asarray(base, dtype=np.float64) - p.feat_mean) / p.feat_scale
        Z1 = B @ p.W1.T + p.b1
        A1 = lrelu(Z1)
        X = A1 @ p.W2.T + p.b2
        v = X.mean(axis=0)
        z1 = p.H1 @ v + p.c1
        u1 = lrelu(z1)
        z2 = p.H2 @ u1 + p.c2
        u2 = lrelu(z2)
        z3 = p.H3 @ u2 + p.c3
        u3 = lrelu(z3)
        logits = p.Ho @ u3 + p.co
        caches.append(dict(B=B, Z1=Z1, A1=A1, X=X, v=v, z1=z1, u1=u1, z2=z2, u2=u2, z3=z3, u3=u3, logits=logits))

    n = len(members)
    ce_total = 0.0
    dlogits = []
    for c, label in zip(caches, labels):
        m = c["logits"].max()
        log_z = m + np.log(np.exp(c["logits"] - m).sum())
        ce_total += log_z - c["logits"][label]
        d = np.exp(c["logits"] - log_z)
        d[label] -= 1.0
        dlogits.append(d / n)
    loss = ce_total / n
    parts = {"ce": ce_total / n, "cf_seq": 0.0, "cf_utt": 0.0}

    dX_cf = [np.zeros_like(c["X"]) for c in caches]
    if mode == "ce+cf":
        terms = {"sequence": ("sequence",), "utterance": ("utterance",), "both": ("sequence", "utterance")}
        for level in terms[levels]:
            if level == "sequence":
                value, gs = cf_core([c["X"] for c in caches])
                parts["cf_seq"] = value
            else:
                n_frames = caches[0]["X"].shape[0]
                value, gs = cf_core([c["X"].mean(axis=0, keepdims=True) for c in caches])
                gs = [np.repeat(g / n_frames, n_frames, axis=0) for g in gs]
                parts["cf_utt"] = value
            loss += value
            for acc, g in zip(dX_cf, gs):
                acc += g

    grads = {name: np.zeros_like(getattr(p, name)) for name in p.TRAINABLE}
    for c, dl, extra in zip(caches, dlogits, dX_cf):
        grads["Ho"] += np.outer(dl, c["u3"])
        grads["co"] += dl
        dz3 = (p.Ho.T @ dl) * dlrelu(c["z3"])
        grads["H3"] += np.outer(dz3, c["u2"])
        grads["c3"] += dz3
        dz2 = (p.H3.T @ dz3) * dlrelu(c["z2"])
        grads["H2"] += np.outer(dz2, c["u1"])
        grads["c2"] += dz2
        dz1 = (p.H2.T @ dz2) * dlrelu(c["z1"])
        grads["H1"] += np.outer(dz1, c["v"])
        grads["c1"] += dz1
        dv = p.H1.T @ dz1
        n_frames = c["X"].shape[0]
        dX = np.tile(dv / n_frames, (n_frames, 1)) + extra
        grads["W2"] += dX.T @ c["A1"]
        grads["b2"] += dX.sum(axis=0)
        dZ1 = (dX @ p.W2) * dlrelu(c["Z1"])
        grads["W1"] += dZ1.T @ c["B"]
        grads["b1"] += dZ1.sum(axis=0)
    return loss, grads, parts
