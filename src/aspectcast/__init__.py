"""Aspect-level review sentiment features for quarterly revenue-growth forecasting."""

from .aspects import (
    ASPECT_SET_13,
    ASPECT_SET_16,
    builtin_aspects,
    default_vocabulary,
    load_vocabulary,
    match_aspects,
)
from .corpus import Quarter, Review, RevenueSeries, parse_revenue, parse_reviews
from .evaluation import backtest, mse, rmse, theils_u
from .features import (
    FeatureMatrix,
    GrowthSeries,
    assemble,
    chronological_split,
    perception,
    revenue_growth,
)
from .models import (
    ForecasterSpec,
    fit_arima,
    fit_lr,
    fit_mlp,
    fit_nusvr,
    forecast_arima,
    load_reference_model,
    predict_lr,
)
from .sentiment import HeuristicConfig, analyze, analyze_many, default_lexicon, load_lexicon

__version__ = "0.1.0"
