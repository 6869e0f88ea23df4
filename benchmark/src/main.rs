fn main() -> std::process::ExitCode {
    dkbms_benchmark::cli::main()
}
