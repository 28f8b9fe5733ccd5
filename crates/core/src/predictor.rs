//! The unified serving surface: every predictor family — [`LearnedWmp`], the
//! [`SingleWmp`] ML baselines, the [`SingleWmpDbms`] heuristic, and the
//! self-retraining [`OnlineWmp`] — answers workload-memory questions through
//! one [`WorkloadPredictor`] trait.
//!
//! This is the interface a serving daemon, the evaluation harness, and the
//! figure binaries program against: hold a `Box<dyn WorkloadPredictor>` (or a
//! `&dyn WorkloadPredictor`), call [`WorkloadPredictor::predict_workload`]
//! per arriving batch, and report [`WorkloadPredictor::name`] /
//! [`WorkloadPredictor::footprint_bytes`] in dashboards — without
//! special-casing the model family at any call site.

use wmp_mlkit::MlResult;
use wmp_plan::ResourceVector;
use wmp_workloads::QueryRecord;

use crate::learned::LearnedWmp;
use crate::online::OnlineWmp;
use crate::single::{SingleWmp, SingleWmpDbms};
use crate::workload::Workload;

/// Resolves a workload's `query_indices` against the record slice, rejecting
/// out-of-range indices with a typed error instead of panicking — a serving
/// daemon must survive a malformed workload description.
///
/// # Errors
/// Returns [`wmp_mlkit::MlError::DimensionMismatch`] naming the bad index.
pub(crate) fn gather_queries<'r>(
    records: &[&'r QueryRecord],
    workload: &Workload,
) -> MlResult<Vec<&'r QueryRecord>> {
    workload
        .query_indices
        .iter()
        .map(|&i| {
            records.get(i).copied().ok_or_else(|| {
                wmp_mlkit::error::dim_mismatch(
                    format!("query index < {}", records.len()),
                    format!("index {i}"),
                )
            })
        })
        .collect()
}

/// A trained (or heuristic) model that predicts the collective working-memory
/// demand of a workload — the common contract over the paper's three
/// predictor families (§IV: LearnedWMP, SingleWMP, SingleWMP-DBMS).
///
/// The bound is `Send + Sync`: a trained predictor is immutable at serving
/// time, so one instance can be shared across concurrent request threads —
/// typically behind a [`crate::handle::PredictorHandle`], which adds atomic
/// hot-swap of the underlying model on top of the shared reads.
pub trait WorkloadPredictor: Send + Sync {
    /// Stable display name, e.g. `"LearnedWMP-XGB"` or `"SingleWMP-DBMS"`.
    fn name(&self) -> String;

    /// Predicts the full resource demand of one workload — memory (MB), CPU
    /// time (ms), and IO (pages). This is the primary prediction surface;
    /// memory-only call sites use [`WorkloadPredictor::predict_workload`].
    ///
    /// Families without a model for an axis (and models trained before
    /// multi-resource labels) report zero on that axis.
    ///
    /// # Errors
    /// Propagates assignment/prediction errors; models that must be trained
    /// first return [`wmp_mlkit::MlError::NotFitted`].
    fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector>;

    /// Predicts the memory demand (MB) of one workload — the memory
    /// projection of [`WorkloadPredictor::predict_resources`].
    /// Implementations with a cheaper scalar path may override it.
    ///
    /// # Errors
    /// Same conditions as [`WorkloadPredictor::predict_resources`].
    fn predict_workload(&self, queries: &[&QueryRecord]) -> MlResult<f64> {
        Ok(self.predict_resources(queries)?.memory_mb)
    }

    /// Predicts every workload of a batched test set (indices into
    /// `records`). Implementations may override this with a batched fast
    /// path; the default calls [`WorkloadPredictor::predict_workload`] per
    /// workload.
    ///
    /// # Errors
    /// Propagates per-workload errors, and rejects workloads whose
    /// `query_indices` fall outside `records` with a
    /// [`wmp_mlkit::MlError::DimensionMismatch`] instead of panicking.
    fn predict_workloads(
        &self,
        records: &[&QueryRecord],
        workloads: &[Workload],
    ) -> MlResult<Vec<f64>> {
        workloads.iter().map(|w| self.predict_workload(&gather_queries(records, w)?)).collect()
    }

    /// Predicts every workload's full resource demand. The default resolves
    /// and validates indices per workload and calls
    /// [`WorkloadPredictor::predict_resources`]; implementations with a
    /// batched fast path may override it.
    ///
    /// # Errors
    /// Same conditions as [`WorkloadPredictor::predict_workloads`].
    fn predict_resources_many(
        &self,
        records: &[&QueryRecord],
        workloads: &[Workload],
    ) -> MlResult<Vec<ResourceVector>> {
        workloads.iter().map(|w| self.predict_resources(&gather_queries(records, w)?)).collect()
    }

    /// Size of the learned parameters in bytes (0 for pure heuristics) — the
    /// quantity behind the paper's Fig. 8.
    fn footprint_bytes(&self) -> usize;

    /// Maps one query to the model's template id, when the model has a
    /// notion of templates (`None` otherwise — the default, used by the
    /// SingleWMP families). Observability hooks use this to track the live
    /// template distribution for drift detection without downcasting.
    ///
    /// # Errors
    /// Propagates assignment errors from template-based models.
    fn assign_template(&self, _query: &QueryRecord) -> MlResult<Option<usize>> {
        Ok(None)
    }

    /// Predicts a workload from the template ids this model's
    /// [`WorkloadPredictor::assign_template`] gave its members: the
    /// histogram and regressor steps of
    /// [`WorkloadPredictor::predict_resources`] alone, bit-identical to it
    /// on those members. A serving engine assigns each query as it arrives
    /// and only this step is left when the window closes.
    ///
    /// `None` (the default, kept by the SingleWMP families) when the model
    /// does not predict from templates; callers then use
    /// `predict_resources` on the records.
    fn predict_assigned(&self, _templates: &[usize]) -> Option<MlResult<ResourceVector>> {
        None
    }
}

impl WorkloadPredictor for LearnedWmp {
    fn name(&self) -> String {
        format!("LearnedWMP-{}", self.config().model.label())
    }

    fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector> {
        LearnedWmp::predict_resources(self, queries)
    }

    fn predict_workload(&self, queries: &[&QueryRecord]) -> MlResult<f64> {
        LearnedWmp::predict_workload(self, queries)
    }

    fn predict_workloads(
        &self,
        records: &[&QueryRecord],
        workloads: &[Workload],
    ) -> MlResult<Vec<f64>> {
        // The batched path assigns each distinct record to its template once
        // and reuses the assignment across overlapping workloads.
        LearnedWmp::predict_workloads(self, records, workloads)
    }

    fn predict_resources_many(
        &self,
        records: &[&QueryRecord],
        workloads: &[Workload],
    ) -> MlResult<Vec<ResourceVector>> {
        LearnedWmp::predict_resources_many(self, records, workloads)
    }

    fn footprint_bytes(&self) -> usize {
        LearnedWmp::footprint_bytes(self)
    }

    fn assign_template(&self, query: &QueryRecord) -> MlResult<Option<usize>> {
        LearnedWmp::assign_template(self, query).map(Some)
    }

    fn predict_assigned(&self, templates: &[usize]) -> Option<MlResult<ResourceVector>> {
        Some(LearnedWmp::predict_assigned(self, templates))
    }
}

impl WorkloadPredictor for SingleWmp {
    fn name(&self) -> String {
        format!("SingleWMP-{}", self.model().label())
    }

    fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector> {
        SingleWmp::predict_resources(self, queries)
    }

    fn predict_workload(&self, queries: &[&QueryRecord]) -> MlResult<f64> {
        SingleWmp::predict_workload(self, queries)
    }

    // `predict_workloads` uses the validating trait default: summing per
    // query has no batched fast path to exploit.

    fn footprint_bytes(&self) -> usize {
        SingleWmp::footprint_bytes(self)
    }
}

impl WorkloadPredictor for SingleWmpDbms {
    fn name(&self) -> String {
        "SingleWMP-DBMS".to_string()
    }

    fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector> {
        Ok(SingleWmpDbms::predict_resources(self, queries))
    }

    fn predict_workload(&self, queries: &[&QueryRecord]) -> MlResult<f64> {
        Ok(SingleWmpDbms::predict_workload(self, queries))
    }

    // `predict_workloads` uses the validating trait default.

    fn footprint_bytes(&self) -> usize {
        0
    }
}

impl WorkloadPredictor for OnlineWmp {
    fn name(&self) -> String {
        match self.model() {
            Some(m) => format!("Online{}", WorkloadPredictor::name(m)),
            None => "OnlineWMP-untrained".to_string(),
        }
    }

    fn predict_resources(&self, queries: &[&QueryRecord]) -> MlResult<ResourceVector> {
        OnlineWmp::predict_resources(self, queries)
    }

    fn predict_workload(&self, queries: &[&QueryRecord]) -> MlResult<f64> {
        OnlineWmp::predict_workload(self, queries)
    }

    fn predict_workloads(
        &self,
        records: &[&QueryRecord],
        workloads: &[Workload],
    ) -> MlResult<Vec<f64>> {
        match self.model() {
            Some(m) => LearnedWmp::predict_workloads(m, records, workloads),
            None => {
                Err(wmp_mlkit::MlError::NotFitted("OnlineWmp (no retraining has happened yet)"))
            }
        }
    }

    fn predict_resources_many(
        &self,
        records: &[&QueryRecord],
        workloads: &[Workload],
    ) -> MlResult<Vec<ResourceVector>> {
        match self.model() {
            Some(m) => LearnedWmp::predict_resources_many(m, records, workloads),
            None => {
                Err(wmp_mlkit::MlError::NotFitted("OnlineWmp (no retraining has happened yet)"))
            }
        }
    }

    fn footprint_bytes(&self) -> usize {
        self.model().map_or(0, LearnedWmp::footprint_bytes)
    }

    fn assign_template(&self, query: &QueryRecord) -> MlResult<Option<usize>> {
        match self.model() {
            Some(m) => LearnedWmp::assign_template(m, query).map(Some),
            None => Ok(None),
        }
    }

    fn predict_assigned(&self, templates: &[usize]) -> Option<MlResult<ResourceVector>> {
        self.model().map(|m| LearnedWmp::predict_assigned(m, templates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TemplateSpec;
    use crate::model::ModelKind;
    use crate::workload::{batch_workloads, LabelMode};

    #[test]
    fn all_families_serve_through_one_trait_object() {
        let log = wmp_workloads::tpcc::generate(400, 5).unwrap();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let learned = LearnedWmp::builder()
            .model(ModelKind::Ridge)
            .templates(TemplateSpec::PlanKMeans { k: 8, seed: 1 })
            .fit(&log)
            .unwrap();
        let single = SingleWmp::train(ModelKind::Ridge, &refs).unwrap();
        let predictors: Vec<Box<dyn WorkloadPredictor>> =
            vec![Box::new(learned), Box::new(single), Box::new(SingleWmpDbms)];
        let ws = batch_workloads(&refs, 10, 3, LabelMode::Sum);
        for p in &predictors {
            let one = p.predict_workload(&refs[..10]).unwrap();
            assert!(one > 0.0, "{}", p.name());
            let many = p.predict_workloads(&refs, &ws).unwrap();
            assert_eq!(many.len(), ws.len(), "{}", p.name());
            assert!(many.iter().all(|v| v.is_finite()), "{}", p.name());
            // The full-resource surface serves every family too, and its
            // memory axis agrees with the scalar path.
            let vec_one = p.predict_resources(&refs[..10]).unwrap();
            assert!(vec_one.is_finite(), "{}: {vec_one}", p.name());
            assert_eq!(vec_one.memory_mb.to_bits(), one.to_bits(), "{}", p.name());
            assert!(vec_one.cpu_ms > 0.0, "{}: cpu axis must be modeled", p.name());
            let vec_many = p.predict_resources_many(&refs, &ws).unwrap();
            assert_eq!(vec_many.len(), ws.len(), "{}", p.name());
            for (scalar, vector) in many.iter().zip(&vec_many) {
                assert_eq!(vector.memory_mb.to_bits(), scalar.to_bits(), "{}", p.name());
            }
        }
        let names: Vec<String> = predictors.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["LearnedWMP-Ridge", "SingleWMP-Ridge", "SingleWMP-DBMS"]);
        assert_eq!(predictors[2].footprint_bytes(), 0);
        assert!(predictors[0].footprint_bytes() > 0);
    }

    #[test]
    fn assigned_templates_predict_like_the_records() {
        let log = wmp_workloads::tpcc::generate(300, 21).unwrap();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let learned = LearnedWmp::builder()
            .model(ModelKind::Xgb)
            .templates(TemplateSpec::PlanKMeans { k: 6, seed: 2 })
            .fit(&log)
            .unwrap();
        let p: &dyn WorkloadPredictor = &learned;
        for w in refs.chunks(10) {
            let ids: Vec<usize> =
                w.iter().map(|r| p.assign_template(r).unwrap().unwrap()).collect();
            let assigned = p.predict_assigned(&ids).unwrap().unwrap();
            let direct = p.predict_resources(w).unwrap();
            assert_eq!(assigned.as_array().map(f64::to_bits), direct.as_array().map(f64::to_bits));
            assert_eq!(assigned.memory_mb.to_bits(), p.predict_workload(w).unwrap().to_bits());
        }
        assert!(matches!(
            p.predict_assigned(&[6]),
            Some(Err(wmp_mlkit::MlError::DimensionMismatch { .. }))
        ));
        let single = SingleWmp::train(ModelKind::Ridge, &refs).unwrap();
        assert!(single.predict_assigned(&[0]).is_none());
        assert!(SingleWmpDbms.predict_assigned(&[0]).is_none());
    }

    #[test]
    fn batched_trait_path_matches_per_workload_path() {
        let log = wmp_workloads::tpcc::generate(300, 2).unwrap();
        let refs: Vec<&QueryRecord> = log.records.iter().collect();
        let learned = LearnedWmp::builder()
            .model(ModelKind::Xgb)
            .templates(TemplateSpec::PlanKMeans { k: 6, seed: 1 })
            .fit(&log)
            .unwrap();
        let p: &dyn WorkloadPredictor = &learned;
        let ws = batch_workloads(&refs, 10, 9, LabelMode::Sum);
        let batched = p.predict_workloads(&refs, &ws).unwrap();
        for (w, b) in ws.iter().zip(&batched) {
            let queries: Vec<&QueryRecord> = w.query_indices.iter().map(|&i| refs[i]).collect();
            assert_eq!(p.predict_workload(&queries).unwrap().to_bits(), b.to_bits());
        }
    }
}
