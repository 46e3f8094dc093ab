//! Figure 5: measured `Cost(q, p)` against partition size, with the
//! fitted straight lines of the cost model.

use blot_core::cost::{CalibrationConfig, CostModel, MeasurePoint};

use crate::{Context, Scale};

/// Measurement points and fitted parameters for one environment.
#[derive(Debug)]
pub struct Fig5Env {
    /// Environment name.
    pub env: String,
    /// Raw measured points (scheme × partition size → average ms).
    pub points: Vec<MeasurePoint>,
    /// Fitted `(scheme, slope ms/record, intercept ms)`.
    pub fits: Vec<(String, f64, f64)>,
    /// Coefficient of determination R² of each scheme's fit.
    pub r_squared: Vec<(String, f64)>,
}

/// Figure 5 for both environments.
#[derive(Debug)]
pub struct Fig5Result {
    /// Sub-figures (a)/(c): the cloud environment.
    pub cloud: Fig5Env,
    /// Sub-figures (b)/(d): the local cluster.
    pub local: Fig5Env,
}

fn measure(ctx: &Context, env: &blot_storage::EnvProfile) -> Fig5Env {
    let calib = match ctx.scale {
        Scale::Quick => CalibrationConfig {
            sizes: vec![1_500, 3_000, 6_000],
            partitions_per_set: 4,
        },
        Scale::Full => CalibrationConfig::paper(),
    };
    let (model, points) = CostModel::calibrate_with(env, &ctx.sample, &calib, 0xF15);
    let mut fits = Vec::new();
    let mut r_squared = Vec::new();
    for scheme in blot_codec::EncodingScheme::all() {
        let p = model.params(scheme);
        fits.push((scheme.to_string(), p.ms_per_record.get(), p.extra_ms.get()));
        // R² of the fit over this scheme's points.
        let pts: Vec<&MeasurePoint> = points.iter().filter(|m| m.scheme == scheme).collect();
        let mean = pts.iter().map(|m| m.avg_ms).sum::<f64>() / pts.len() as f64;
        let ss_tot: f64 = pts.iter().map(|m| (m.avg_ms - mean).powi(2)).sum();
        let ss_res: f64 = pts
            .iter()
            .map(|m| (m.avg_ms - model.partition_cost(scheme, m.records as f64).get()).powi(2))
            .sum();
        let r2 = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        };
        r_squared.push((scheme.to_string(), r2));
    }
    Fig5Env {
        env: env.name.to_owned(),
        points,
        fits,
        r_squared,
    }
}

/// Runs the Figure 5 measurement in both environments.
#[must_use]
pub fn fig5(ctx: &Context) -> Fig5Result {
    Fig5Result {
        cloud: measure(ctx, &ctx.cloud),
        local: measure(ctx, &ctx.local),
    }
}

impl Fig5Result {
    /// Renders the measured series and the fits.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for env in [&self.cloud, &self.local] {
            out.push_str(&format!("  environment: {}\n", env.env));
            let mut sizes: Vec<usize> = env.points.iter().map(|p| p.records).collect();
            sizes.sort_unstable();
            sizes.dedup();
            out.push_str(&format!("    {:<12}", "|D(p)| →"));
            for s in &sizes {
                out.push_str(&format!("{s:>12}"));
            }
            out.push('\n');
            for scheme in blot_codec::EncodingScheme::all() {
                out.push_str(&format!("    {:<12}", scheme.to_string()));
                for s in &sizes {
                    let v = env
                        .points
                        .iter()
                        .find(|p| p.scheme == scheme && p.records == *s)
                        .map_or(f64::NAN, |p| p.avg_ms);
                    out.push_str(&format!("{v:>12.0}"));
                }
                let r2 = env
                    .r_squared
                    .iter()
                    .find(|(n, _)| *n == scheme.to_string())
                    .map_or(f64::NAN, |(_, r)| *r);
                out.push_str(&format!("   (fit R² = {r2:.4})\n"));
            }
        }
        out
    }

    /// Shape check: the paper's claim is that Equation 6 fits well,
    /// "especially when the size of partition is relatively large" — we
    /// require R² ≥ 0.9 for every scheme in both environments.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        [&self.cloud, &self.local]
            .iter()
            .all(|e| e.r_squared.iter().all(|(_, r2)| *r2 >= 0.9))
    }
}
