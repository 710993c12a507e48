"""Synthetic recommendation ecosystem with known causal structure.

Users carry a ground-truth conformity level and an interest distribution;
items carry Zipf-distributed popularity, topic flags and quality. Engagement
probability is additive in the logit with a separable conformity term
(conformity level x standardized log-popularity) and a relevance term
(interest/topic alignment x quality), so the disentanglement the model is
supposed to achieve is exactly true in the generator and can be probed
against logged ground truth.

Logs are emitted day by day. Exposure is tilted toward popular items
(popularity feedback), histories fold strictly over past days, and every
byte is a deterministic function of (config, seed). simulate_days uses one
worker thread: it draws day d+1 while the caller's thread derives day d's
features. Only that thread draws from the day rng, in day order, so the
bytes are unchanged by it, and a run may use two cores.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import DataConfig
from .schema import Schema, default_schema


class DataGenError(ValueError):
    pass


@dataclass
class World:
    """Ground-truth user/item factors for one simulated ecosystem."""

    cfg: DataConfig
    # users
    conformity: np.ndarray  # [n_users] in [0,1]
    interests: np.ndarray  # [n_users, k], rows on the simplex
    activity: np.ndarray  # [n_users] expected impressions/day
    age_bucket: np.ndarray  # [n_users] int
    # items
    popularity: np.ndarray  # [n_items] Zipf mass, > 0
    topics: np.ndarray  # [n_items, k] multi-hot, >= 1 topic
    quality: np.ndarray  # [n_items] in [0,1]
    birth_day: np.ndarray  # [n_items] int
    content_type: np.ndarray  # [n_items] int
    # derived
    z_log_pop: np.ndarray = field(init=False, repr=False)  # standardized log popularity
    top_decile: np.ndarray = field(init=False, repr=False)  # bool mask of top-10%-popularity items
    topic_shares: np.ndarray = field(init=False, repr=False)  # phi_i / |phi_i|

    def __post_init__(self):
        log_pop = np.log(self.popularity)
        std = log_pop.std()
        self.z_log_pop = (log_pop - log_pop.mean()) / (std if std > 0 else 1.0)
        self.top_decile = self.popularity >= np.quantile(self.popularity, 0.9)
        self.topic_shares = self.topics / self.topics.sum(axis=1, keepdims=True)

    @property
    def n_users(self):
        return self.conformity.shape[0]

    @property
    def n_items(self):
        return self.popularity.shape[0]

    def interest_alignment(self, users, items) -> np.ndarray:
        """<theta_u, phi_i / |phi_i|> for paired index arrays."""
        return np.einsum("nk,nk->n", self.interests[users], self.topic_shares[items])


@dataclass
class DayLog:
    """All interaction events of one day, with features frozen pre-update."""

    day: int
    user_ids: np.ndarray  # [n]
    item_ids: np.ndarray  # [n]
    labels: np.ndarray  # [n, T] binary
    x_scalar: np.ndarray  # [n] historical-conformity scalar per event
    features: np.ndarray  # [n, schema.arity()] raw row, dense z-scored per day
    conformity_component: np.ndarray  # [n] generative logit term (anchor task)
    relevance_component: np.ndarray  # [n]

    @property
    def n_events(self):
        return self.user_ids.shape[0]


@dataclass
class History:
    """Running per-user / per-item counters over all days before `day`."""

    day: int
    item_impressions: np.ndarray
    item_clicks: np.ndarray  # anchor-task positives per item
    item_views: np.ndarray  # second-task positives per item
    user_impressions: np.ndarray
    user_engagements: np.ndarray  # anchor-task positives per user
    user_social: np.ndarray  # last-task positives per user
    user_top_decile_engagements: np.ndarray

    @classmethod
    def empty(cls, n_users: int, n_items: int) -> "History":
        zi = lambda n: np.zeros(n, dtype=np.int64)
        return cls(0, zi(n_items), zi(n_items), zi(n_items),
                   zi(n_users), zi(n_users), zi(n_users), zi(n_users))

    def update(self, log: DayLog, world: World):
        if log.day < self.day:
            raise DataGenError(f"day {log.day} already folded (at {self.day})")
        np.add.at(self.item_impressions, log.item_ids, 1)
        np.add.at(self.item_clicks, log.item_ids, log.labels[:, 0])
        view_task = min(1, log.labels.shape[1] - 1)
        np.add.at(self.item_views, log.item_ids, log.labels[:, view_task])
        np.add.at(self.user_impressions, log.user_ids, 1)
        np.add.at(self.user_engagements, log.user_ids, log.labels[:, 0])
        np.add.at(self.user_social, log.user_ids, log.labels[:, -1])
        on_top = world.top_decile[log.item_ids].astype(np.int64)
        np.add.at(self.user_top_decile_engagements, log.user_ids,
                  log.labels[:, 0] * on_top)
        self.day = log.day + 1


def generate_world(cfg: DataConfig) -> World:
    rng = np.random.default_rng(cfg.seed)
    k = cfg.k_topics

    conformity = rng.beta(*cfg.conformity_beta, size=cfg.n_users)
    interests = rng.dirichlet(np.full(k, 0.5), size=cfg.n_users)
    activity = cfg.mean_activity * rng.lognormal(0.0, 0.4, size=cfg.n_users)
    age_bucket = rng.integers(0, cfg.n_age_buckets, size=cfg.n_users)

    # Zipf mass over a random rank permutation; s = 0 degenerates to uniform.
    ranks = rng.permutation(cfg.n_items) + 1
    popularity = ranks.astype(np.float64) ** (-cfg.zipf_s)

    topics = _draw_topics(rng, cfg.n_items, k)
    quality = rng.beta(2.0, 2.0, size=cfg.n_items)
    content_type = rng.integers(0, cfg.n_content_types, size=cfg.n_items)

    # Late-born items: a fixed slice per simulated day after day 0.
    birth_day = np.zeros(cfg.n_items, dtype=np.int64)
    n_new = cfg.new_items_per_day * (cfg.n_days - 1)
    if n_new >= cfg.n_items:
        raise DataGenError("new_items_per_day * days exceeds the catalog")
    late = rng.choice(cfg.n_items, size=n_new, replace=False)
    for d in range(1, cfg.n_days):
        lo = (d - 1) * cfg.new_items_per_day
        birth_day[late[lo : lo + cfg.new_items_per_day]] = d

    # Low-activity segment: without it the lognormal rates keep every user
    # active almost daily and the casual cohort (active 1-2 days per window)
    # is structurally empty. Drawn last so the draws above are unaffected.
    if cfg.casual_fraction > 0.0:
        casual = rng.random(cfg.n_users) < cfg.casual_fraction
        activity = np.where(casual, activity * cfg.casual_activity_scale, activity)

    return World(cfg, conformity, interests, activity, age_bucket,
                 popularity, topics, quality, birth_day, content_type)


def _draw_topics(rng: np.random.Generator, n_items: int, k: int) -> np.ndarray:
    """Multi-hot [n_items, k] rows of 1-3 distinct topics each: the rows, and
    the rng state after them, of drawing every item's size and then calling
    rng.choice(k, size, replace=False) item by item, in one draw.

    For size s <= 3 (and any k), choice runs Floyd's algorithm: s bounded
    draws in [0, j] for j = k-s .. k-1, a value already picked becoming j;
    then it shuffles the picks with s-1 draws in [0, i] for i = s-1 .. 1.
    rng.integers over an array of bounds makes the same bounded draws in
    order, so one call consumes exactly what the loop would. The shuffle
    draws are discarded: a multi-hot row does not see the order."""
    size = rng.integers(1, 4, size=n_items)
    per_item = 2 * size - 1
    start = np.cumsum(per_item) - per_item
    owner = np.repeat(np.arange(n_items), per_item)
    s, pos = size[owner], np.arange(owner.shape[0]) - start[owner]
    bounds = np.where(pos < s, k - s + pos, 2 * s - 1 - pos)
    draws = rng.integers(0, bounds + 1)

    picks = np.empty((n_items, 3), dtype=np.int64)
    for c in range(3):
        rows = np.flatnonzero(size > c)
        v, j = draws[start[rows] + c], k - size[rows] + c
        taken = (picks[rows, :c] == v[:, None]).any(axis=1)
        picks[rows, c] = np.where(taken, j, v)
    topics = np.zeros((n_items, k))
    topics[np.repeat(np.arange(n_items), size), picks[size[:, None] > np.arange(3)]] = 1.0
    return topics


def _event_factors(world: World, users, items) -> tuple:
    """The world factors every task's logit reads, for paired index arrays:
    (user conformity, item z log-popularity, interest alignment, item quality)."""
    return (world.conformity[users], world.z_log_pop[items],
            world.interest_alignment(users, items), world.quality[items])


def _engagement(cfg: DataConfig, factors: tuple, task: int) -> tuple:
    """(engagement probability, conformity logit term, relevance logit term)
    of one task for the events whose _event_factors are given."""
    conformity, z_log_pop, alignment, quality = factors
    conf = cfg.task_alpha[task] * conformity * z_log_pop
    rel = cfg.task_beta[task] * alignment * quality
    p = 1.0 / (1.0 + np.exp(-(conf + rel + cfg.task_gamma[task])))
    return np.minimum(np.maximum(p, 1e-7), 1.0 - 1e-7), conf, rel


def engagement_probability(world: World, users, items, task: int) -> np.ndarray:
    return _engagement(world.cfg, _event_factors(world, users, items), task)[0]


def derive_x(history: History) -> np.ndarray:
    """Share of a user's engagements that landed on top-decile items;
    0.5 for users with no engagement history."""
    total = history.user_engagements.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        x = history.user_top_decile_engagements / total
    return np.where(total > 0, x, 0.5)


def _zscore_columns(mat: np.ndarray) -> np.ndarray:
    """Columns of mat minus their mean over their sd (1 where the sd is
    below 1e-12): the float ops of mat.mean(0) and mat.std(0), in order,
    without their Python wrappers."""
    n = mat.shape[0]
    mean = np.add.reduce(mat, axis=0) / n
    dev = mat - mean
    std = np.sqrt(np.add.reduce(dev * dev, axis=0) / n)
    std = np.where(std > 1e-12, std, 1.0)
    return dev / std


@functools.cache
def _generator_specs(k_topics: int, n_age_buckets: int, n_content_types: int) -> dict:
    """name -> FeatureSpec of the features derive_features writes."""
    return {s.name: s for s in default_schema(k_topics, n_age_buckets, n_content_types).specs}


def _check_feature_schema(world: World, schema: Schema):
    """Refuse a schema whose features, in any order, are not those of the
    generator's default_schema for the world's config."""
    cfg = world.cfg
    want = _generator_specs(cfg.k_topics, cfg.n_age_buckets, cfg.n_content_types)
    have = {s.name: s for s in schema.specs}
    if have != want:
        extra = sorted(have.keys() - want.keys())
        missing = sorted(want.keys() - have.keys())
        differ = sorted(n for n in have.keys() & want.keys() if have[n] != want[n])
        raise DataGenError(
            "schema does not match the generator's features: "
            f"unknown {extra}, missing {missing}, declared differently {differ}")


def derive_features(world: World, history: History, users, items,
                    schema: Schema) -> np.ndarray:
    """Raw feature rows from strictly-prior-day history, each feature in
    the columns the schema gives it.

    Dense columns come back z-scored over the given batch (the generator
    calls this once per day, so 'per day' normalization falls out).
    """
    _check_feature_schema(world, schema)
    n = len(users)
    if n == 0:
        return np.zeros((0, schema.arity()))
    imps = history.item_impressions[items].astype(np.float64)
    clicks = history.item_clicks[items].astype(np.float64)
    stat = {
        "item_impression_count": np.log1p(imps),
        "item_view_count": np.log1p(history.item_views[items].astype(np.float64)),
        "item_ctr_est": (clicks + 1.0) / (imps + 2.0),  # Laplace-smoothed CTR estimate
        "user_engagement_count": np.log1p(history.user_engagements[users].astype(np.float64)),
        "user_social_rate": (history.user_social[users] + 1.0)
        / (history.user_impressions[users] + 2.0),
    }
    # Statistical engagement columns are the nonstationary ones; they get the
    # per-day z-score. Attribute columns stay in natural units (topic flags
    # must remain binary so causal labels are derivable from dataset rows).
    out = np.empty((n, schema.arity()))
    at = schema.slices
    z = _zscore_columns(np.column_stack(list(stat.values())))
    for j, name in enumerate(stat):
        out[:, at[name]] = z[:, j : j + 1]
    out[:, at["user_age_bucket"]] = world.age_bucket[users].reshape(n, 1)
    out[:, at["user_interest_weights"]] = world.interests[users]
    out[:, at["item_topic_flags"]] = world.topics[items]
    out[:, at["item_quality"]] = world.quality[items].reshape(n, 1)
    out[:, at["content_type"]] = world.content_type[items].reshape(n, 1)
    return out


# Events per block of _draw_day's engagement terms. It runs on simulate_days'
# worker thread, whose malloc arena nothing reuses once the thread is gone,
# so its temporaries are kept to a block (the row values do not depend on it).
_DRAW_ROWS = 2048


def _draw_day(world: World, rng: np.random.Generator, day: int) -> tuple:
    """The history-free part of one simulated day, and the only code that
    draws from the day rng: exposure, Poisson counts, item choice, (user,
    item) order and each task's label uniforms. Returns (users, items,
    labels, conformity term, relevance term), the last two of the anchor task."""
    cfg = world.cfg
    live = np.flatnonzero(world.birth_day <= day)
    weights = world.popularity[live] ** cfg.exposure_tilt
    weights = weights / weights.sum()

    n_per_user = rng.poisson(world.activity)
    users = np.repeat(np.arange(world.n_users), n_per_user)
    items = live[rng.choice(live.shape[0], size=users.shape[0], p=weights)]
    order = np.argsort(users * world.n_items + items, kind="stable")
    users, items = users[order], items[order]

    n = users.shape[0]
    uniforms = rng.random((cfg.n_tasks, n))  # task by task, as n-long draws
    labels = np.empty((n, cfg.n_tasks), dtype=np.int64)
    conf, rel = np.empty(n), np.empty(n)  # the anchor task's logged components
    for lo in range(0, n, _DRAW_ROWS):
        rows = slice(lo, lo + _DRAW_ROWS)
        factors = _event_factors(world, users[rows], items[rows])
        for t in range(cfg.n_tasks):
            p, conf_t, rel_t = _engagement(cfg, factors, t)
            labels[rows, t] = uniforms[t, rows] < p
            if t == 0:
                conf[rows], rel[rows] = conf_t, rel_t
    return users, items, labels, conf, rel


def simulate_days(world: World, schema: Schema):
    """Yield one DayLog per simulated day, folding histories as we go.

    Day d+1's draw runs on one worker thread while this thread derives and
    yields day d. Only the worker draws from the day rng, one day at a time
    in day order, so every byte is that of drawing and deriving in turn.
    Drawing ahead is valid because exposure reads no history. The worker is
    joined when the generator finishes or is closed, and an exception raised
    in a draw is raised here, by the next() that wants that day."""
    cfg = world.cfg
    rng = np.random.default_rng(cfg.seed + 1)
    history = History.empty(world.n_users, world.n_items)

    pool = ThreadPoolExecutor(max_workers=1)
    try:
        ahead = pool.submit(_draw_day, world, rng, 0)
        for day in range(cfg.n_days):
            users, items, labels, conf, rel = ahead.result()
            if day + 1 < cfg.n_days:
                ahead = pool.submit(_draw_day, world, rng, day + 1)
            x = derive_x(history)[users]
            features = derive_features(world, history, users, items, schema)

            log = DayLog(day, users, items, labels, x, features, conf, rel)
            yield log
            history.update(log, world)
    finally:
        pool.shutdown(cancel_futures=True)
