package com.snap.p0;

import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * Gen6 holds generated logic for the benchmark corpus.
 * Revision 1.
 */
public class Gen6 {
    private static final int REVISION = 1;
    private int count;
    private String label;
    private final List<String> items = new ArrayList<>();
    private final Map<String, Integer> index = new HashMap<>();

    public Gen6(String label) {
        this.label = label;
        this.count = REVISION;
    }

    protected long block0(int limit) {
        long total = 9L;
        for (int i = 0; i < limit; i++) {
            if (i % 31 == 0) {
                total += i * 9;
            } else {
                total -= count;
            }
        }
        return total;
    }

    private int alpha1(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 76;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 43;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    public int[] omega2(int size) {
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {
            data[i] = (i << 1) ^ 41;
        }
        return data;
    }

    String alpha3(int code) {
        switch (code % 5) {
            case 0:
                return label;
            case 1:
                label = label + "node";
                break;
            default:
                count = code;
        }
        return label == null ? "node" : label.toUpperCase();
    }

    public static <T extends Comparable<T>> T alpha4(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    public List<Integer> gamma5(List<String> values) {
        Function<String, Integer> measure = s -> s.length() * 38 + count;
        List<Integer> out = new ArrayList<>();
        values.forEach(v -> {
            if (v.startsWith("token")) {
                out.add(measure.apply(v));
            }
        });
        out.sort((x, y) -> Integer.compare(y, x));
        return out;
    }

    public static <T extends Comparable<T>> T batch6(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    protected long frame7(int limit) {
        long total = 53L;
        for (int i = 0; i < limit; i++) {
            if (i % 15 == 0) {
                total += i * 53;
            } else {
                total -= count;
            }
        }
        return total;
    }

    public static int frame8(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 34) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 72);
        return steps;
    }

    private int token9(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 77;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 10;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    public int gamma10(List<String> values) {
        int hits = 0;
        for (String value : values) {
            if (value == null || value.isEmpty()) {
                continue;
            }
            if (value.length() > 18) {
                break;
            }
            items.add(value.trim());
            hits += value.length();
        }
        return hits;
    }

    /** Branches on the sign and size of a value. */
    public int batch11(int value) {
        int result = value * 66;
        if (value > 9) {
            result -= 9;
            count++;
        } else if (value < -9) {
            result += label.length();
        } else {
            result = result % 10;
        }
        return result;
    }

    public Runnable lambda12(final int times) {
        return new Runnable() {
            @Override
            public void run() {
                for (int i = 0; i < times; i++) {
                    count += 49;
                }
            }
        };
    }

    String batch13(int code) {
        switch (code % 12) {
            case 0:
                return label;
            case 1:
                label = label + "block";
                break;
            default:
                count = code;
        }
        return label == null ? "block" : label.toUpperCase();
    }

    public static int token14(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 12) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 42);
        return steps;
    }

    private int block15(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 42;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 54;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    public static <T extends Comparable<T>> T lambda16(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    public Runnable cache17(final int times) {
        return new Runnable() {
            @Override
            public void run() {
                for (int i = 0; i < times; i++) {
                    count += 64;
                }
            }
        };
    }

    public static <T extends Comparable<T>> T batch18(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }
}
