"""End-to-end GAlign facade (paper Fig 2).

Pipeline: multi-order embedding (Alg 1, §V) → alignment instantiation
(§VI-A) → refinement (Alg 2, §VI-B).  Fully unsupervised: the optional
``supervision`` argument of :meth:`GAlign.align` is ignored by design (R3).

Ablation variants from Table IV are configuration flags:

* ``use_augmentation=False``  → GAlign-1 (consistency loss only)
* ``use_refinement=False``    → GAlign-2 (raw multi-order alignment)
* ``multi_order=False``       → GAlign-3 (final-layer embeddings only)
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..base import AlignmentMethod
from ..graphs import AlignmentPair
from .alignment import alignment_matrix
from .config import GAlignConfig
from .refine import AlignmentRefiner
from .trainer import GAlignTrainer

__all__ = ["GAlign"]


class GAlign(AlignmentMethod):
    """Unsupervised multi-order GCN network alignment.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core import GAlign, GAlignConfig
    >>> from repro.graphs import generators, noisy_copy_pair
    >>> rng = np.random.default_rng(0)
    >>> graph = generators.barabasi_albert(50, 2, rng, feature_dim=8)
    >>> pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
    >>> result = GAlign(GAlignConfig(epochs=20, embedding_dim=32)).align(pair, rng=rng)
    >>> result.scores.shape == (50, 50)
    True
    """

    name = "GAlign"
    requires_supervision = False
    uses_attributes = True

    def __init__(
        self,
        config: Optional[GAlignConfig] = None,
        pretrained_model=None,
    ) -> None:
        self.config = config if config is not None else GAlignConfig()
        #: A pre-trained :class:`MultiOrderGCN` (e.g. from
        #: :func:`~repro.core.checkpoint.load_model`); when set,
        #: :meth:`align` skips training and goes straight to alignment.
        self.pretrained_model = pretrained_model
        #: When set, training writes v2 checkpoints here every
        #: ``checkpoint_every`` epochs (kill-safe resumability).
        self.checkpoint_path: Optional[str] = None
        self.checkpoint_every: int = 1
        #: When set, training resumes from this v2 checkpoint.
        self.resume_from: Optional[str] = None
        #: Optional fault-injection harness threaded into the trainer.
        self.fault_injector = None
        #: Populated after :meth:`align`: training and refinement diagnostics.
        self.training_log = None
        self.refinement_log = None
        self.model = None
        self.target_model = None

    # ------------------------------------------------------------------
    def _align_scores(
        self,
        pair: AlignmentPair,
        supervision: Optional[Dict[int, int]],
        rng: np.random.Generator,
    ) -> np.ndarray:
        # R3: unsupervised — anchor supervision is deliberately unused.
        config = self.config
        if config.seed is not None:
            rng = np.random.default_rng(config.seed)

        if self.pretrained_model is not None:
            if self.pretrained_model.input_dim != pair.source.num_features:
                raise ValueError(
                    f"pretrained model expects input_dim="
                    f"{self.pretrained_model.input_dim}, the pair has "
                    f"{pair.source.num_features} attributes"
                )
            self.model = self.pretrained_model
            self.target_model = self.pretrained_model
            self.training_log = None
        else:
            trainer = GAlignTrainer(
                config, rng, fault_injector=self.fault_injector
            )
            if config.share_weights:
                self.model, self.training_log = trainer.train(
                    pair,
                    checkpoint_path=self.checkpoint_path,
                    checkpoint_every=self.checkpoint_every,
                    resume_from=self.resume_from,
                )
                self.target_model = self.model
            else:
                if self.checkpoint_path or self.resume_from:
                    raise ValueError(
                        "training checkpoints cover one shared-weight "
                        "model; they are unsupported with "
                        "share_weights=False"
                    )
                # Weight-sharing ablation: embed each side with its own
                # model, which leaves the two embedding spaces unreconciled.
                self.model, self.training_log = trainer.train_single(
                    pair.source
                )
                self.target_model, _ = trainer.train_single(pair.target)

        if config.use_refinement:
            scores, self.refinement_log = AlignmentRefiner(config).refine(
                pair, self.model, self.target_model
            )
            if config.multi_order:
                return scores
            # GAlign-3 under refinement: last-layer scores only, but from
            # the refiner's best-iteration (influence-weighted) embeddings
            # — re-embedding with the default propagation would discard
            # the refinement loop's work.
            source = self.refinement_log.best_source_embeddings
            target = self.refinement_log.best_target_embeddings
        else:
            self.refinement_log = None
            source = self.model.embed(pair.source)
            target = self.target_model.embed(pair.target)
            if config.multi_order:
                return alignment_matrix(
                    source, target, config.resolved_layer_weights()
                )
        return alignment_matrix(source[-1:], target[-1:], [1.0])
