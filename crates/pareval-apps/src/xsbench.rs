//! XSBench: proxy for OpenMC macroscopic cross-section lookup (paper
//! Sec. 5.1) — the largest conventional app in the suite (9 files), and the
//! one case where public ports to the target models exist (the paper's
//! data-contamination probe).
//!
//! The computation: for each of `n_lookups` pseudo-random (energy, material)
//! queries, binary-search each nuclide's energy grid, linearly interpolate
//! five cross-section channels, and accumulate concentration-weighted macro
//! cross-sections. Verification is an integer checksum (order-independent
//! sum), so all models and schedules agree exactly.

use crate::{gt_cmake_kokkos, gt_make_omp_offload, share, Application, ReferenceMemo, TestCase};
use minihpc_lang::model::ExecutionModel;
use minihpc_lang::repo::SourceRepo;
use std::collections::BTreeMap;

const HEADER: &str = r#"#define N_CHANNELS 5

typedef struct {
    int n_isotopes;
    int n_gridpoints;
    int n_lookups;
    int n_materials;
    long seed;
} Params;

void read_params(int argc, char** argv, Params* p);
void print_results(Params* p, long verification);

double* init_energy_grid(Params* p);
double* init_xs_data(Params* p);
int* init_num_nucs(Params* p);
int* init_mats(Params* p);
double* init_concs(Params* p);

long rng_init(long seed, long id);
long rng_next(long state);
double rng_u01(long state);

long lookup_one(long l, long seed, const double* energy_grid, const double* xs_data,
                const int* num_nucs, const int* mats, const double* concs,
                int n_isotopes, int n_gridpoints, int n_materials);
"#;

const PARAMS_SRC: &str = r#"#include <stdlib.h>
#include "xsbench.h"

void read_params(int argc, char** argv, Params* p) {
    p->n_isotopes = 12;
    p->n_gridpoints = 64;
    p->n_lookups = 2000;
    p->n_materials = 8;
    p->seed = 1070;
    if (argc > 1) p->n_lookups = atoi(argv[1]);
    if (argc > 2) p->n_isotopes = atoi(argv[2]);
    if (argc > 3) p->n_gridpoints = atoi(argv[3]);
    if (argc > 4) p->seed = atol(argv[4]);
}
"#;

const RNG_SRC: &str = r#"#include "xsbench.h"

long rng_init(long seed, long id) {
    long x = seed * 0x27BB2EE687B0B0FD + id * 0xB504F32D + 1;
    return x;
}

long rng_next(long state) {
    return state * 0x27BB2EE687B0B0FD + 0xB504F32D;
}

double rng_u01(long state) {
    long y = state >> 11;
    return (double)(y % 1048576) / 1048576.0;
}
"#;

const GRID_INIT_SRC: &str = r#"#include <stdlib.h>
#include "xsbench.h"

double* init_energy_grid(Params* p) {
    int NI = p->n_isotopes;
    int NG = p->n_gridpoints;
    double* grid = (double*)malloc(NI * NG * sizeof(double));
    for (int n = 0; n < NI; n++) {
        for (int k = 0; k < NG; k++) {
            grid[n * NG + k] = (double)(k + 1 + (n * 7) % 5) / (double)(NG + 6);
        }
    }
    return grid;
}

double* init_xs_data(Params* p) {
    int NI = p->n_isotopes;
    int NG = p->n_gridpoints;
    double* xs = (double*)malloc(NI * NG * N_CHANNELS * sizeof(double));
    for (int n = 0; n < NI; n++) {
        for (int k = 0; k < NG; k++) {
            for (int c = 0; c < N_CHANNELS; c++) {
                int h = (n * 31 + k * 7 + c * 3) % 100;
                xs[(n * NG + k) * N_CHANNELS + c] = 0.01 + (double)h / 100.0;
            }
        }
    }
    return xs;
}
"#;

const MATERIALS_SRC: &str = r#"#include <stdlib.h>
#include "xsbench.h"

#define MAX_NUCS 6

int* init_num_nucs(Params* p) {
    int NM = p->n_materials;
    int* num = (int*)malloc(NM * sizeof(int));
    for (int m = 0; m < NM; m++) {
        num[m] = 2 + m % 4;
    }
    return num;
}

int* init_mats(Params* p) {
    int NM = p->n_materials;
    int NI = p->n_isotopes;
    int* mats = (int*)malloc(NM * MAX_NUCS * sizeof(int));
    for (int m = 0; m < NM; m++) {
        for (int j = 0; j < MAX_NUCS; j++) {
            mats[m * MAX_NUCS + j] = (m * 5 + j * 3 + 1) % NI;
        }
    }
    return mats;
}

double* init_concs(Params* p) {
    int NM = p->n_materials;
    double* concs = (double*)malloc(NM * MAX_NUCS * sizeof(double));
    for (int m = 0; m < NM; m++) {
        for (int j = 0; j < MAX_NUCS; j++) {
            concs[m * MAX_NUCS + j] = (double)((m + j * 2) % 10 + 1) / 10.0;
        }
    }
    return concs;
}
"#;

/// The lookup core, shared verbatim between the OpenMP and CUDA variants
/// (in the CUDA repo it is compiled by nvcc and called from the kernel).
const SIM_CORE: &str = r#"int grid_search(const double* row, int n, double e) {
    int lo = 0;
    int hi = n - 1;
    while (lo < hi) {
        int mid = (lo + hi) / 2;
        if (row[mid] < e) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo;
}

long lookup_one(long l, long seed, const double* energy_grid, const double* xs_data,
                const int* num_nucs, const int* mats, const double* concs,
                int n_isotopes, int n_gridpoints, int n_materials) {
    long state = rng_init(seed, l);
    state = rng_next(state);
    double energy = rng_u01(state);
    state = rng_next(state);
    long pick = state >> 17;
    int mat = (int)(pick % n_materials);
    double macro0 = 0.0;
    double macro1 = 0.0;
    double macro2 = 0.0;
    double macro3 = 0.0;
    double macro4 = 0.0;
    int nn = num_nucs[mat];
    for (int j = 0; j < nn; j++) {
        int nuc = mats[mat * 6 + j];
        double conc = concs[mat * 6 + j];
        int idx = grid_search(energy_grid + nuc * n_gridpoints, n_gridpoints, energy);
        int kLow = idx;
        if (kLow > 0) kLow = kLow - 1;
        int kHigh = kLow + 1;
        if (kHigh > n_gridpoints - 1) kHigh = n_gridpoints - 1;
        double eLow = energy_grid[nuc * n_gridpoints + kLow];
        double eHigh = energy_grid[nuc * n_gridpoints + kHigh];
        double f = 0.0;
        if (eHigh > eLow) f = (energy - eLow) / (eHigh - eLow);
        if (f < 0.0) f = 0.0;
        if (f > 1.0) f = 1.0;
        int baseLow = (nuc * n_gridpoints + kLow) * N_CHANNELS;
        int baseHigh = (nuc * n_gridpoints + kHigh) * N_CHANNELS;
        macro0 += conc * (xs_data[baseLow + 0] + f * (xs_data[baseHigh + 0] - xs_data[baseLow + 0]));
        macro1 += conc * (xs_data[baseLow + 1] + f * (xs_data[baseHigh + 1] - xs_data[baseLow + 1]));
        macro2 += conc * (xs_data[baseLow + 2] + f * (xs_data[baseHigh + 2] - xs_data[baseLow + 2]));
        macro3 += conc * (xs_data[baseLow + 3] + f * (xs_data[baseHigh + 3] - xs_data[baseLow + 3]));
        macro4 += conc * (xs_data[baseLow + 4] + f * (xs_data[baseHigh + 4] - xs_data[baseLow + 4]));
    }
    long v = (long)(macro0 * 10000.0) + (long)(macro1 * 1000.0) + (long)(macro2 * 100.0)
        + (long)(macro3 * 10.0) + (long)(macro4);
    return v % 999983;
}
"#;

const IO_SRC: &str = r#"#include <stdio.h>
#include "xsbench.h"

void print_results(Params* p, long verification) {
    printf("Simulation complete.\n");
    printf("Lookups: %d\n", p->n_lookups);
    printf("Verification checksum: %ld\n", verification);
}
"#;

const OMP_SIM_DRIVER: &str = r#"#include <omp.h>
#include "xsbench.h"

long run_simulation(Params* p, const double* energy_grid, const double* xs_data,
                    const int* num_nucs, const int* mats, const double* concs) {
    long verification = 0;
    int L = p->n_lookups;
    int NI = p->n_isotopes;
    int NG = p->n_gridpoints;
    int NM = p->n_materials;
    long seed = p->seed;
    #pragma omp parallel for reduction(+: verification)
    for (int l = 0; l < L; l++) {
        verification += lookup_one(l, seed, energy_grid, xs_data, num_nucs, mats, concs, NI, NG, NM);
    }
    return verification;
}
"#;

const CUDA_SIM_DRIVER: &str = r#"#include <cuda_runtime.h>
#include "xsbench.h"

__global__ void lookup_kernel(long* results, long seed, const double* energy_grid,
                              const double* xs_data, const int* num_nucs, const int* mats,
                              const double* concs, int L, int NI, int NG, int NM) {
    int l = blockIdx.x * blockDim.x + threadIdx.x;
    if (l < L) {
        results[l] = lookup_one(l, seed, energy_grid, xs_data, num_nucs, mats, concs, NI, NG, NM);
    }
}

long run_simulation(Params* p, const double* energy_grid, const double* xs_data,
                    const int* num_nucs, const int* mats, const double* concs) {
    int L = p->n_lookups;
    int NI = p->n_isotopes;
    int NG = p->n_gridpoints;
    int NM = p->n_materials;
    double* d_energy;
    double* d_xs;
    int* d_num_nucs;
    int* d_mats;
    double* d_concs;
    long* d_results;
    cudaMalloc(&d_energy, NI * NG * sizeof(double));
    cudaMalloc(&d_xs, NI * NG * N_CHANNELS * sizeof(double));
    cudaMalloc(&d_num_nucs, NM * sizeof(int));
    cudaMalloc(&d_mats, NM * 6 * sizeof(int));
    cudaMalloc(&d_concs, NM * 6 * sizeof(double));
    cudaMalloc(&d_results, L * sizeof(long));
    cudaMemcpy(d_energy, energy_grid, NI * NG * sizeof(double), cudaMemcpyHostToDevice);
    cudaMemcpy(d_xs, xs_data, NI * NG * N_CHANNELS * sizeof(double), cudaMemcpyHostToDevice);
    cudaMemcpy(d_num_nucs, num_nucs, NM * sizeof(int), cudaMemcpyHostToDevice);
    cudaMemcpy(d_mats, mats, NM * 6 * sizeof(int), cudaMemcpyHostToDevice);
    cudaMemcpy(d_concs, concs, NM * 6 * sizeof(double), cudaMemcpyHostToDevice);
    int threads = 128;
    int blocks = (L + threads - 1) / threads;
    lookup_kernel<<<blocks, threads>>>(d_results, p->seed, d_energy, d_xs, d_num_nucs, d_mats, d_concs, L, NI, NG, NM);
    cudaDeviceSynchronize();
    long* h_results = (long*)malloc(L * sizeof(long));
    cudaMemcpy(h_results, d_results, L * sizeof(long), cudaMemcpyDeviceToHost);
    long verification = 0;
    for (int l = 0; l < L; l++) {
        verification += h_results[l];
    }
    cudaFree(d_energy);
    cudaFree(d_xs);
    cudaFree(d_num_nucs);
    cudaFree(d_mats);
    cudaFree(d_concs);
    cudaFree(d_results);
    free(h_results);
    return verification;
}
"#;

fn main_src(extra_include: &str) -> String {
    format!(
        r#"#include <stdio.h>
#include <stdlib.h>
{extra_include}#include "xsbench.h"

long run_simulation(Params* p, const double* energy_grid, const double* xs_data,
                    const int* num_nucs, const int* mats, const double* concs);

int main(int argc, char** argv) {{
    Params* p = (Params*)malloc(sizeof(Params));
    read_params(argc, argv, p);
    printf("XSBench (MiniHPC port)\n");
    printf("Isotopes: %d  Gridpoints: %d  Materials: %d\n", p->n_isotopes, p->n_gridpoints, p->n_materials);
    double* energy_grid = init_energy_grid(p);
    double* xs_data = init_xs_data(p);
    int* num_nucs = init_num_nucs(p);
    int* mats = init_mats(p);
    double* concs = init_concs(p);
    long verification = run_simulation(p, energy_grid, xs_data, num_nucs, mats, concs);
    print_results(p, verification);
    free(energy_grid);
    free(xs_data);
    free(num_nucs);
    free(mats);
    free(concs);
    free(p);
    return 0;
}}
"#
    )
}

const README: &str = "# XSBench (MiniHPC port)\n\nA proxy application for the \
macroscopic cross-section lookup kernel of OpenMC (Tramm et al., PHYSOR 2014). \
Implementations: OpenMP threads and CUDA. Public ports to OpenMP offload and \
Kokkos exist upstream, making this the benchmark's data-contamination probe.\n";

pub fn xsbench() -> Application {
    let omp_sources = [
        "src/main.cpp",
        "src/params.cpp",
        "src/rng.cpp",
        "src/grid_init.cpp",
        "src/materials.cpp",
        "src/sim.cpp",
        "src/sim_driver.cpp",
        "src/io.cpp",
    ];
    let omp_makefile = format!(
        "CXX = g++\nCXXFLAGS = -O2 -fopenmp -lm\nSRCS = {srcs}\n\nxsbench: $(SRCS)\n\t$(CXX) $(CXXFLAGS) -o xsbench $(SRCS)\n\n.PHONY: clean\nclean:\n\trm -f xsbench\n",
        srcs = omp_sources.join(" ")
    );
    let cuda_sources = [
        "src/main.cu",
        "src/params.cu",
        "src/rng.cu",
        "src/grid_init.cu",
        "src/materials.cu",
        "src/sim.cu",
        "src/sim_driver.cu",
        "src/io.cu",
    ];
    let cuda_makefile = format!(
        "NVCC = nvcc\nNVCCFLAGS = -O2 -arch=sm_80\nSRCS = {srcs}\n\nxsbench: $(SRCS)\n\t$(NVCC) $(NVCCFLAGS) -o xsbench $(SRCS)\n\n.PHONY: clean\nclean:\n\trm -f xsbench\n",
        srcs = cuda_sources.join(" ")
    );

    let mut omp_repo = SourceRepo::new()
        .with_file("Makefile", omp_makefile)
        .with_file("README.md", README)
        .with_file("src/xsbench.h", HEADER)
        .with_file("src/main.cpp", main_src(""))
        .with_file("src/params.cpp", PARAMS_SRC)
        .with_file("src/rng.cpp", RNG_SRC)
        .with_file("src/grid_init.cpp", GRID_INIT_SRC)
        .with_file("src/materials.cpp", MATERIALS_SRC)
        .with_file("src/io.cpp", IO_SRC)
        .with_file("src/sim_driver.cpp", OMP_SIM_DRIVER);
    omp_repo.add(
        "src/sim.cpp",
        format!("#include \"xsbench.h\"\n\n{SIM_CORE}"),
    );

    let mut cuda_repo = SourceRepo::new()
        .with_file("Makefile", cuda_makefile)
        .with_file("README.md", README)
        .with_file("src/xsbench.h", HEADER)
        .with_file("src/main.cu", main_src("#include <cuda_runtime.h>\n"))
        .with_file("src/params.cu", PARAMS_SRC)
        .with_file("src/rng.cu", RNG_SRC)
        .with_file("src/grid_init.cu", GRID_INIT_SRC)
        .with_file("src/materials.cu", MATERIALS_SRC)
        .with_file("src/io.cu", IO_SRC)
        .with_file("src/sim_driver.cu", CUDA_SIM_DRIVER);
    cuda_repo.add(
        "src/sim.cu",
        format!("#include \"xsbench.h\"\n\n{SIM_CORE}"),
    );

    let mut repos = BTreeMap::new();
    repos.insert(ExecutionModel::OmpThreads, omp_repo);
    repos.insert(ExecutionModel::Cuda, cuda_repo);

    let gt_sources = [
        "src/main.cpp",
        "src/params.cpp",
        "src/rng.cpp",
        "src/grid_init.cpp",
        "src/materials.cpp",
        "src/sim.cpp",
        "src/sim_driver.cpp",
        "src/io.cpp",
    ];
    let mut gt = BTreeMap::new();
    gt.insert(
        ExecutionModel::OmpOffload,
        (
            "Makefile".to_string(),
            gt_make_omp_offload("xsbench", &gt_sources),
        ),
    );
    gt.insert(
        ExecutionModel::Kokkos,
        (
            "CMakeLists.txt".to_string(),
            gt_cmake_kokkos("xsbench", &gt_sources),
        ),
    );

    let tests = vec![
        TestCase::new(["1000"]),
        TestCase::new(["2000", "12", "64", "1070"]),
        TestCase::new(["500", "20", "32", "7"]),
    ];
    Application {
        name: "XSBench".into(),
        binary: "xsbench".into(),
        repos: share(repos),
        reference: ReferenceMemo::shared(&tests),
        tests,
        cli_spec: "The program must be invoked as `xsbench [n_lookups] [n_isotopes] \
                   [n_gridpoints] [seed]` (defaults 2000 12 64 1070) and print the header \
                   lines followed by `Lookups: <n>` and `Verification checksum: <v>`."
            .to_string(),
        build_spec: "The build must produce an executable named `xsbench` in the repository \
                     root, compiling all eight sources under src/."
            .to_string(),
        ground_truth_build: gt,
        public_ports_exist: true,
        gen_digest: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_build::{build_repo, BuildRequest};
    use minihpc_runtime::{run, RunConfig};

    fn run_model(model: ExecutionModel, args: &[&str]) -> minihpc_runtime::RunResult {
        let app = xsbench();
        let out = build_repo(app.repo(model).unwrap(), &BuildRequest::new(&*app.binary));
        assert!(out.succeeded(), "{model} build failed:\n{}", out.log.text());
        run(
            &out.executable.unwrap(),
            RunConfig::with_args(args.iter().copied()),
        )
    }

    #[test]
    fn omp_and_cuda_checksums_agree() {
        let omp = run_model(ExecutionModel::OmpThreads, &["400"]);
        let cuda = run_model(ExecutionModel::Cuda, &["400"]);
        assert!(omp.error.is_none(), "{:?}", omp.error);
        assert!(cuda.error.is_none(), "{:?}", cuda.error);
        assert_eq!(omp.stdout, cuda.stdout);
        assert!(cuda.telemetry.ran_on_device());
        assert!(!omp.telemetry.ran_on_device());
    }

    #[test]
    fn checksum_depends_on_seed_and_size() {
        let a = run_model(ExecutionModel::OmpThreads, &["300", "12", "64", "1"]);
        let b = run_model(ExecutionModel::OmpThreads, &["300", "12", "64", "2"]);
        assert_ne!(a.stdout, b.stdout);
        let c = run_model(ExecutionModel::OmpThreads, &["301", "12", "64", "1"]);
        assert_ne!(a.stdout, c.stdout);
    }

    #[test]
    fn parallel_schedule_matches_sequential() {
        let app = xsbench();
        let out = build_repo(
            app.repo(ExecutionModel::OmpThreads).unwrap(),
            &BuildRequest::new(&*app.binary),
        );
        let exe = out.executable.unwrap();
        let seq = run(&exe, RunConfig::with_args(["500"]));
        let mut cfg = RunConfig::with_args(["500"]);
        cfg.parallel = true;
        let par = run(&exe, cfg);
        assert_eq!(
            seq.stdout, par.stdout,
            "integer checksum is schedule-invariant"
        );
    }
}
